package main

// The steadiness report: run the benchmark once per seed on every workload
// in BENCHMARK.json, sequentially and at its run_seconds, and print for every
// end-to-end metric and workload the median, the quartiles (Python's
// statistics.quantiles(values, n=4), exclusive method) and the relative
// spread (q3 - q1) / median, flagging any spread beyond the metric's bound.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func steady(args []string) int {
	fl := flag.NewFlagSet("steady", flag.ContinueOnError)
	seeds := fl.String("seeds", "1-10", "seed range lo-hi")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "steady: BENCHMARK.json:", err)
		return 1
	}
	lo, hi, ok := strings.Cut(*seeds, "-")
	first, err1 := strconv.Atoi(lo)
	last, err2 := strconv.Atoi(hi)
	if !ok || err1 != nil || err2 != nil || last < first {
		fmt.Fprintln(os.Stderr, "steady: --seeds wants lo-hi")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	status := 0
	for _, wl := range spec.Workloads {
		w := wl.Name
		values := map[string][]float64{}
		failed := 0
		for seed := first; seed <= last; seed++ {
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			var res result
			if err == nil {
				err = json.Unmarshal(lastLine(out), &res)
			}
			if err != nil || !res.Correct || res.Failed > 0 {
				fmt.Printf("%s seed %d: run failed (%v, correct=%v, failed=%d)\n", w, seed, err, res.Correct, res.Failed)
				failed++
				status = 1
				continue
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Printf("%s seed %d: %s\n", w, seed, lastLine(out))
		}
		for _, m := range spec.EndToEnd {
			v := values[m.Name]
			if len(v) < 2 {
				continue
			}
			q := pyQuartiles(v)
			med := median(v)
			spread := (q[2] - q[0]) / med
			flag := "ok"
			switch {
			case spread > m.Bound:
				flag = "OVER BOUND"
				status = 1
			case spread > m.Bound/3:
				flag = "over a third of bound"
			}
			fmt.Printf("STEADY %-15s %-22s n=%2d median=%-12.6g q1=%-12.6g q3=%-12.6g spread=%.4f bound=%.2f %s\n",
				w, m.Name, len(v), med, q[0], q[2], spread, m.Bound, flag)
		}
		if failed > 0 {
			fmt.Printf("STEADY %-15s %d runs failed\n", w, failed)
		}
	}
	return status
}

// pyQuartiles is statistics.quantiles(v, n=4) with the default exclusive
// method.
func pyQuartiles(v []float64) [3]float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n, m := 4, len(d)+1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return out
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
