// Command perfbench is the repository benchmark. It generates every input
// from --seed, starts the real dpserver binary on a fresh state directory,
// drives it over loopback HTTP with closed-loop connections, checks every
// reply, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload mech-inline --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 repeats the measured
// run for the server's own stage counters, then replays the same seeded
// operations in-process, timing the calls into each module's public
// functions, and reports the per-layer metrics.
//
//	bash perfbench/run.sh steady --seeds 1-10
//
// runs the benchmark once per seed on every workload, at BENCHMARK.json's
// run_seconds, and prints each metric's median, quartiles and relative
// spread against its bound there.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	os.Exit(bench(os.Args[1:], os.Stdout))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(args []string, out io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "mech-inline, query-scan or ingest-monitor")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 10, "nominal measured seconds; sizes the operation count")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	budget := fl.Float64("budget", 0, "per-tenant budget override (0 sizes it so no request is refused); a small value shows the checks failing")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env := &runEnv{
		root: root, bin: filepath.Join(root, ".bench_build", "dpserver"),
		seed: *seed, seconds: *seconds, budget: *budget,
		work: filepath.Join(root, ".bench_build", fmt.Sprintf("run-%s-%d-%d", *workload, *seed, os.Getpid())),
	}
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(env.work)
	sc, err := buildScenario(*workload, env.work, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// A run that cannot finish within 170 seconds is a failure, not a
	// result. An interrupt stops the run the same way: the loops stop
	// sending, and the server is shut down and waited for before the
	// benchmark exits.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sigCtx, 170*time.Second)
	defer cancel()

	var res *result
	if *trace == 0 {
		res, err = endToEnd(ctx, env, sc, out)
	} else {
		res, err = perLayer(ctx, env, sc, out)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

// endToEnd is the --trace 0 run.
func endToEnd(ctx context.Context, env *runEnv, sc *scenario, out io.Writer) (*result, error) {
	h, err := runHTTP(ctx, env, sc, sc.setups)
	if err != nil {
		return nil, err
	}
	report(out, "env", h.envInfo)
	lat := durationsMs(h.lats)
	report(out, "samples", map[string]any{
		"ops": h.ops, "latency_samples": len(lat), "beyond_p99": len(lat) / 100,
		"setups_s": h.setups, "elapsed_s": h.elapsed.Seconds(),
		"plan_cache_hit_ratio": ratio(h.after.sum("freegap_plan_cache_hits_total")-h.before.sum("freegap_plan_cache_hits_total"),
			h.after.sum("freegap_plan_cache_misses_total")-h.before.sum("freegap_plan_cache_misses_total")),
	})
	diag := map[string]any{"latency_p99_ms": quantile(lat, 0.99)}
	if len(h.lags) > 0 {
		lags := durationsMs(h.lags)
		diag["verdict_lag_p50_ms"] = quantile(lags, 0.5)
		diag["verdict_lag_p99_ms"] = quantile(lags, 0.99)
		diag["verdict_lag_samples"] = len(lags)
	}
	report(out, "diagnostics", diag)
	res := outcome(h.l)
	// Throughput and CPU time per operation are medians over the measured
	// rounds, so a burst of load elsewhere on the host that slows one round
	// does not move the run's figure.
	var rps, cpu []float64
	for _, r := range h.rounds {
		rps, cpu = append(rps, r.rps), append(cpu, r.cpuMsOp)
	}
	res.Metrics = map[string]metric{
		"setup_s":              {median(h.setups), "s"},
		"throughput_rps":       {median(rps), "1/s"},
		"latency_p50_ms":       {quantile(lat, 0.5), "ms"},
		"server_cpu_ms_per_op": {median(cpu), "ms"},
		"server_rss_peak_mb":   {h.rssMB, "MiB"},
	}
	return res, nil
}

// outcome turns the ledger into the result's verdict fields.
func outcome(l *ledger) *result {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}
	return &result{
		Correct:   l.failed == 0 && l.mismatches == 0,
		Attempted: max(l.attempted, 1),
		Failed:    l.failed,
	}
}

// report prints one diagnostic line (everything before the result line).
func report(out io.Writer, name string, v any) {
	b, _ := json.Marshal(v)
	fmt.Fprintf(out, "# %s %s\n", name, b)
}

// ratio is hits/(hits+misses), 0 with no lookups.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

func durationsMs(ds []time.Duration) []float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(v)
	return v
}

// quantile interpolates between the order statistics of sorted v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func cutBetween(s, prefix, suffix string) (string, bool) {
	rest, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return "", false
	}
	v, _, ok := strings.Cut(rest, suffix)
	return v, ok
}

// sourceHash identifies the code under test: the checkout need not be a
// git repository, so it hashes every Go source and module file instead.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err == nil {
			rel, _ := filepath.Rel(root, path)
			fmt.Fprintf(h, "%s %d\n", rel, len(b))
			h.Write(b)
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
