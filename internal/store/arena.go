package store

// Columnar dataset arenas. Each catalogued dataset's item-count vector lives
// in one flat, cache-line-aligned arena indexed densely by item id, together
// with the sketches the resolve path consults without touching the counts:
// a presence bitset (one bit per item id, set iff the item occurs in any
// transaction) plus min/max/nonzero summaries built in the same pass that
// fills the counts. The arena has a stable on-disk image — a 128-byte header
// followed by the counts column and the bitset — so a persistent server can
// write it once at registration and mmap it back on restart, skipping the
// full transaction recount (the only O(records) scan in a dataset's life).
//
// File layout (little-endian, the only byte order the server runs on):
//
//	offset   0: magic "FGARENA1"
//	offset   8: version  uint32
//	offset  12: flags    uint32 (reserved, zero)
//	offset  16: records  uint64 — transaction count fingerprint
//	offset  24: items    uint64 — item-universe size (len(counts))
//	offset  32: nonzero  uint64 — items with a non-zero count
//	offset  40: checksum uint64 — FNV-1a over the raw counts bytes
//	offset  48: min      float64 — smallest non-zero count (0 if none)
//	offset  56: max      float64 — largest count (0 if none)
//	offset  64: zblock   uint32  — records per zone block (0: no zones)
//	offset  68: zcount   uint32  — number of zone blocks
//	offset  72: zsum     uint64  — FNV-1a over the zone payload bytes
//	offset  80: reserved (zero) up to 128
//	offset 128: counts  [items]float64
//	then:       present [(items+63)/64]uint64
//	then:       zbloom  [zcount*8]uint64   — per-block item blooms
//	then:       zminlen [zcount]uint32     — per-block min record length
//	then:       zmaxlen [zcount]uint32     — per-block max record length
//
// The header is exactly two cache lines, so a page-aligned mapping leaves the
// counts column 128-byte aligned, and the zone bloom words land 8-aligned
// because the counts and bitset payloads are multiples of eight bytes.
// Loading validates the fingerprint (records, items, zone geometry), the
// checksums, and that the count sketches match the counts; any mismatch
// reports an error and the caller falls back to a fresh scan — a stale or
// corrupt arena file can never serve wrong counts. Version-1 files (no zone
// sketches) fail the version check and are rebuilt the same way.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"unsafe"
)

const (
	arenaMagic      = "FGARENA1"
	arenaVersion    = 2
	arenaHeaderSize = 128
	// arenaAlign is the alignment of the counts column: two cache lines, the
	// same offset the file header imposes on a page-aligned mapping.
	arenaAlign = 128
)

// ErrArenaInvalid reports an arena file that failed validation (wrong magic,
// fingerprint mismatch against the restored dataset, or corruption); callers
// treat it as "no arena" and rebuild from the transactions.
var ErrArenaInvalid = errors.New("store: invalid arena file")

// Arena is one dataset's columnar count storage plus its sketches. The
// counts slice may be backed by a read-only file mapping; it is read-only by
// contract either way, like the cached vector it replaces.
type Arena struct {
	counts  []float64
	present []uint64
	min     float64 // smallest non-zero count; 0 when every count is zero
	max     float64
	nonzero int
	zones   *Zones // per-block skipping sketches; nil when none were built

	mapping []byte // non-nil iff counts is a live file mapping (munmap on Close)
	path    string // the arena's file image, when one was written or loaded
}

// newArena builds an in-memory arena from a freshly scanned count vector,
// copying it into one aligned allocation and deriving the sketches.
func newArena(counts []float64) *Arena {
	a := &Arena{}
	a.counts, a.present = arenaAlloc(len(counts))
	copy(a.counts, counts)
	a.buildSketch()
	return a
}

// extendArena builds the arena of an appended dataset generation from the
// old arena and the appended records, in one pass over the delta. The counts
// column and the presence bitset are copied once (readers and the mechanisms
// need one flat column, so this memcpy is the only O(items) work); counts,
// presence bits, max and nonzero then change only for the items the delta
// touches. The min needs a full pass only when a touched item held the old
// min, since only then can the min rise. The transactions are never
// rescanned. items is the appended generation's universe; the caller attaches
// the extended zone sketches.
func extendArena(old *Arena, delta [][]int32, items int) *Arena {
	// The persisted-arena path names the dataset, not the generation: it must
	// survive appends so a later Remove still unlinks the right file.
	a := &Arena{path: old.path, min: old.min, max: old.max, nonzero: old.nonzero}
	a.counts, a.present = arenaAlloc(items)
	copy(a.counts, old.counts)
	copy(a.present, old.present)
	minRises := false
	var distinct []int32
	for _, r := range delta {
		// A record counts once per distinct item it holds.
		distinct = append(distinct[:0], r...)
		slices.Sort(distinct)
		for i, it := range distinct {
			if i > 0 && it == distinct[i-1] {
				continue
			}
			if int(it) < len(old.counts) && old.counts[it] != 0 && old.counts[it] == old.min {
				minRises = true
			}
			c := a.counts[it]
			if c == 0 {
				a.present[it/64] |= 1 << (it % 64)
				a.nonzero++
			}
			c++
			a.counts[it] = c
			if c > a.max {
				a.max = c
			}
		}
	}
	if minRises {
		a.min = 0
		for _, c := range a.counts {
			if c != 0 && (a.min == 0 || c < a.min) {
				a.min = c
			}
		}
		return a
	}
	// Every untouched item keeps its count, so the old min still holds one
	// and only the touched items can undercut it.
	for _, r := range delta {
		for _, it := range r {
			if c := a.counts[it]; a.min == 0 || c < a.min {
				a.min = c
			}
		}
	}
	return a
}

// arenaAlloc carves the counts column and the presence bitset out of a single
// allocation with the counts cache-line-aligned.
func arenaAlloc(items int) ([]float64, []uint64) {
	words := (items + 63) / 64
	if items == 0 {
		return []float64{}, make([]uint64, words)
	}
	raw := make([]byte, items*8+words*8+arenaAlign-1)
	off := 0
	if rem := int(uintptr(unsafe.Pointer(&raw[0])) & (arenaAlign - 1)); rem != 0 {
		off = arenaAlign - rem
	}
	counts := unsafe.Slice((*float64)(unsafe.Pointer(&raw[off])), items)
	var present []uint64
	if words > 0 {
		present = unsafe.Slice((*uint64)(unsafe.Pointer(&raw[off+items*8])), words)
	}
	return counts, present
}

// buildSketch fills the presence bitset and min/max/nonzero summaries from
// the counts in one pass.
func (a *Arena) buildSketch() {
	for i := range a.present {
		a.present[i] = 0
	}
	a.min, a.max, a.nonzero = 0, 0, 0
	for i, c := range a.counts {
		if c == 0 {
			continue
		}
		a.present[i/64] |= 1 << (i % 64)
		if a.nonzero == 0 || c < a.min {
			a.min = c
		}
		if c > a.max {
			a.max = c
		}
		a.nonzero++
	}
}

// Counts returns the dense item-count column (read-only by contract; it may
// alias a read-only file mapping).
func (a *Arena) Counts() []float64 { return a.counts }

// Has reports whether item occurs in the dataset, answered from the presence
// bitset without touching the counts column.
func (a *Arena) Has(item int32) bool {
	if item < 0 || int(item) >= len(a.counts) {
		return false
	}
	return a.present[int(item)/64]&(1<<(uint(item)%64)) != 0
}

// MinCount returns the smallest non-zero count (0 when all counts are zero).
func (a *Arena) MinCount() float64 { return a.min }

// MaxCount returns the largest count.
func (a *Arena) MaxCount() float64 { return a.max }

// NonzeroItems returns how many items have a non-zero count.
func (a *Arena) NonzeroItems() int { return a.nonzero }

// Zones returns the arena's zone sketches, or nil when none were built (a
// nil receiver-safe value: the skipping paths treat nil as "scan every
// block").
func (a *Arena) Zones() *Zones { return a.zones }

// Mapped reports whether the arena is served from a file mapping (restart
// fast path) rather than an in-memory scan.
func (a *Arena) Mapped() bool { return a.mapping != nil }

// Path returns the arena's on-disk image path, when it was written with
// WriteArena or loaded with LoadArena ("" for purely in-memory arenas).
// Store.Remove unlinks it so a rolled-back registration cannot leak a stale
// arena file on disk.
func (a *Arena) Path() string { return a.path }

// Close releases the file mapping, if any. In-memory arenas are a no-op.
// The arena must not be used after Close.
func (a *Arena) Close() error {
	if a.mapping == nil {
		return nil
	}
	m := a.mapping
	a.mapping = nil
	a.counts, a.present, a.zones = nil, nil, nil
	return arenaUnmap(m)
}

// arenaPayloadSize returns the byte size of the counts + bitset payload.
func arenaPayloadSize(items int) int {
	return items*8 + ((items+63)/64)*8
}

// fnv1a is the 64-bit FNV-1a hash of b.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// countsBytes returns the raw little-endian byte image of the counts column.
// On the little-endian platforms the server targets this is a reinterpret,
// not a copy.
func countsBytes(counts []float64) []byte {
	if len(counts) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&counts[0])), len(counts)*8)
}

// WriteArena atomically writes the arena's on-disk image for a dataset with
// the given transaction count to path (tmp file + rename), creating the
// parent directory as needed.
func WriteArena(path string, records int, a *Arena) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	items := len(a.counts)
	zcount := a.zones.NumBlocks()
	buf := make([]byte, arenaHeaderSize+arenaPayloadSize(items)+zcount*zoneStride)
	copy(buf[0:8], arenaMagic)
	binary.LittleEndian.PutUint32(buf[8:12], arenaVersion)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(records))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(items))
	binary.LittleEndian.PutUint64(buf[32:40], uint64(a.nonzero))
	binary.LittleEndian.PutUint64(buf[40:48], fnv1a(countsBytes(a.counts)))
	binary.LittleEndian.PutUint64(buf[48:56], math.Float64bits(a.min))
	binary.LittleEndian.PutUint64(buf[56:64], math.Float64bits(a.max))
	payload := buf[arenaHeaderSize:]
	for i, c := range a.counts {
		binary.LittleEndian.PutUint64(payload[i*8:], math.Float64bits(c))
	}
	bits := payload[items*8:]
	for i, w := range a.present {
		binary.LittleEndian.PutUint64(bits[i*8:], w)
	}
	zp := payload[arenaPayloadSize(items):]
	if zcount > 0 {
		z := a.zones
		binary.LittleEndian.PutUint32(buf[64:68], uint32(z.block))
		binary.LittleEndian.PutUint32(buf[68:72], uint32(zcount))
		for i, w := range z.bloom {
			binary.LittleEndian.PutUint64(zp[i*8:], w)
		}
		mins := zp[zcount*zoneBloomWords*8:]
		for i, v := range z.minLen {
			binary.LittleEndian.PutUint32(mins[i*4:], v)
		}
		maxs := mins[zcount*4:]
		for i, v := range z.maxLen {
			binary.LittleEndian.PutUint32(maxs[i*4:], v)
		}
	}
	binary.LittleEndian.PutUint64(buf[72:80], fnv1a(zp))

	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	a.path = path
	return nil
}

// LoadArena opens the arena image at path for a dataset with the given
// transaction count and item universe, validates it end to end, and returns
// it — mmapped read-only when useMmap is set and the platform supports it,
// otherwise read into an aligned in-memory arena. Any mismatch (fingerprint,
// checksum, sketch) returns ErrArenaInvalid so the caller rebuilds from the
// transactions instead.
func LoadArena(path string, records, items int, useMmap bool) (*Arena, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var hdr [arenaHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("%w: %s: reading header: %v", ErrArenaInvalid, path, err)
	}
	zblock := int(binary.LittleEndian.Uint32(hdr[64:68]))
	zcount := int(binary.LittleEndian.Uint32(hdr[68:72]))
	wantSize := int64(arenaHeaderSize + arenaPayloadSize(items) + zcount*zoneStride)
	switch {
	case string(hdr[0:8]) != arenaMagic:
		return nil, fmt.Errorf("%w: %s: bad magic", ErrArenaInvalid, path)
	case binary.LittleEndian.Uint32(hdr[8:12]) != arenaVersion:
		return nil, fmt.Errorf("%w: %s: version %d, want %d", ErrArenaInvalid, path, binary.LittleEndian.Uint32(hdr[8:12]), arenaVersion)
	case binary.LittleEndian.Uint64(hdr[16:24]) != uint64(records):
		return nil, fmt.Errorf("%w: %s: records %d, dataset has %d", ErrArenaInvalid, path, binary.LittleEndian.Uint64(hdr[16:24]), records)
	case binary.LittleEndian.Uint64(hdr[24:32]) != uint64(items):
		return nil, fmt.Errorf("%w: %s: items %d, dataset has %d", ErrArenaInvalid, path, binary.LittleEndian.Uint64(hdr[24:32]), items)
	case zcount > 0 && (zblock <= 0 || zcount != (records+zblock-1)/zblock):
		return nil, fmt.Errorf("%w: %s: zone geometry %d×%d disagrees with %d records", ErrArenaInvalid, path, zcount, zblock, records)
	case st.Size() != wantSize:
		return nil, fmt.Errorf("%w: %s: size %d, want %d", ErrArenaInvalid, path, st.Size(), wantSize)
	}

	a := &Arena{path: path}
	zoneOff := arenaHeaderSize + arenaPayloadSize(items)
	if useMmap && items > 0 {
		if m, err := arenaMap(f, int(wantSize)); err == nil {
			a.mapping = m
			a.counts = unsafe.Slice((*float64)(unsafe.Pointer(&m[arenaHeaderSize])), items)
			a.present = unsafe.Slice((*uint64)(unsafe.Pointer(&m[arenaHeaderSize+items*8])), (items+63)/64)
			if zcount > 0 {
				// The zone arrays start 8-aligned: header, counts and bitset
				// are all multiples of eight bytes.
				a.zones = &Zones{
					block:   zblock,
					records: records,
					bloom:   unsafe.Slice((*uint64)(unsafe.Pointer(&m[zoneOff])), zcount*zoneBloomWords),
					minLen:  unsafe.Slice((*uint32)(unsafe.Pointer(&m[zoneOff+zcount*zoneBloomWords*8])), zcount),
					maxLen:  unsafe.Slice((*uint32)(unsafe.Pointer(&m[zoneOff+zcount*zoneBloomWords*8+zcount*4])), zcount),
				}
			}
		}
	}
	if a.mapping == nil {
		// Fallback (mmap unsupported, failed, or an empty universe): read the
		// payload into a fresh aligned arena.
		a.counts, a.present = arenaAlloc(items)
		payload := make([]byte, arenaPayloadSize(items))
		if _, err := f.ReadAt(payload, arenaHeaderSize); err != nil {
			return nil, fmt.Errorf("%w: %s: reading payload: %v", ErrArenaInvalid, path, err)
		}
		for i := range a.counts {
			a.counts[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
		bits := payload[items*8:]
		for i := range a.present {
			a.present[i] = binary.LittleEndian.Uint64(bits[i*8:])
		}
		if zcount > 0 {
			zp := make([]byte, zcount*zoneStride)
			if _, err := f.ReadAt(zp, int64(zoneOff)); err != nil {
				return nil, fmt.Errorf("%w: %s: reading zone payload: %v", ErrArenaInvalid, path, err)
			}
			z := &Zones{
				block:   zblock,
				records: records,
				bloom:   make([]uint64, zcount*zoneBloomWords),
				minLen:  make([]uint32, zcount),
				maxLen:  make([]uint32, zcount),
			}
			for i := range z.bloom {
				z.bloom[i] = binary.LittleEndian.Uint64(zp[i*8:])
			}
			mins := zp[zcount*zoneBloomWords*8:]
			for i := range z.minLen {
				z.minLen[i] = binary.LittleEndian.Uint32(mins[i*4:])
			}
			maxs := mins[zcount*4:]
			for i := range z.maxLen {
				z.maxLen[i] = binary.LittleEndian.Uint32(maxs[i*4:])
			}
			a.zones = z
		}
	}

	if err := a.validate(hdr); err != nil {
		a.Close()
		return nil, fmt.Errorf("%w: %s: %v", ErrArenaInvalid, path, err)
	}
	if zcount > 0 {
		if err := a.validateZones(hdr, f, zoneOff, zcount); err != nil {
			a.Close()
			return nil, fmt.Errorf("%w: %s: %v", ErrArenaInvalid, path, err)
		}
	}
	return a, nil
}

// validateZones checks the zone payload checksum against the header. The
// sketches cannot be recomputed without the transactions, so the checksum
// plus the records fingerprint is the fail-closed gate: corruption is
// caught, and a sketch for the wrong dataset fails the geometry check.
func (a *Arena) validateZones(hdr [arenaHeaderSize]byte, f *os.File, zoneOff, zcount int) error {
	var zp []byte
	if a.mapping != nil {
		zp = a.mapping[zoneOff : zoneOff+zcount*zoneStride]
	} else {
		zp = make([]byte, zcount*zoneStride)
		if _, err := f.ReadAt(zp, int64(zoneOff)); err != nil {
			return fmt.Errorf("reading zone payload: %v", err)
		}
	}
	if got, want := fnv1a(zp), binary.LittleEndian.Uint64(hdr[72:80]); got != want {
		return fmt.Errorf("zone checksum %#x, header says %#x", got, want)
	}
	return nil
}

// validate checks the loaded payload against the header: counts checksum,
// sketch summaries, and bitset consistency. One pass over the column — still
// orders of magnitude cheaper than the transaction rescan it replaces.
func (a *Arena) validate(hdr [arenaHeaderSize]byte) error {
	if got, want := fnv1a(countsBytes(a.counts)), binary.LittleEndian.Uint64(hdr[40:48]); got != want {
		return fmt.Errorf("counts checksum %#x, header says %#x", got, want)
	}
	var (
		min, max float64
		nonzero  int
	)
	for i, c := range a.counts {
		bit := a.present[i/64]&(1<<(i%64)) != 0
		if (c != 0) != bit {
			return fmt.Errorf("presence bit for item %d disagrees with its count", i)
		}
		if c == 0 {
			continue
		}
		if nonzero == 0 || c < min {
			min = c
		}
		if c > max {
			max = c
		}
		nonzero++
	}
	if uint64(nonzero) != binary.LittleEndian.Uint64(hdr[32:40]) {
		return fmt.Errorf("nonzero %d, header says %d", nonzero, binary.LittleEndian.Uint64(hdr[32:40]))
	}
	if math.Float64bits(min) != binary.LittleEndian.Uint64(hdr[48:56]) {
		return errors.New("min sketch disagrees with counts")
	}
	if math.Float64bits(max) != binary.LittleEndian.Uint64(hdr[56:64]) {
		return errors.New("max sketch disagrees with counts")
	}
	a.min, a.max, a.nonzero = min, max, nonzero
	return nil
}
