package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Scan iteration. The store was write/lookup-only until the learned cost
// model needed a training corpus: the triage trainer scans every
// persisted sample, and `apex-eval -cache-dir` reports entry counts by
// kind. Scan exposes the entries of one kind in sorted key order — keys
// are hex fingerprints and the on-disk layout is <kind>/<key[:2]>/<key>,
// so walking the fan-out directories in name order visits keys in
// lexicographic order, which is the same at every worker count and on
// every machine. Entries failing the envelope checks are counted as
// corrupt, deleted best-effort, and skipped, exactly like a Get miss.

// ErrStopScan stops a Scan early without reporting an error.
var ErrStopScan = fmt.Errorf("store: stop scan")

// Scan calls fn for every valid entry of the given kind in ascending key
// order. The payload slice is freshly read per entry and owned by the
// callback. Returning ErrStopScan stops the walk cleanly; any other
// error aborts the walk and is returned.
func (s *Store) Scan(kind Kind, fn func(key Key, payload []byte) error) error {
	if s == nil {
		return nil
	}
	root := filepath.Join(s.dir, schemaDir(), string(kind))
	subs, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", kind, err)
	}
	for _, sub := range subs {
		if !sub.IsDir() {
			continue
		}
		ents, err := os.ReadDir(filepath.Join(root, sub.Name()))
		if err != nil {
			continue // fan-out dir vanished mid-scan (concurrent prune)
		}
		for _, ent := range ents {
			name := ent.Name()
			if ent.IsDir() || !strings.HasSuffix(name, ".apx") {
				continue
			}
			key := Key(strings.TrimSuffix(name, ".apx"))
			p := filepath.Join(root, sub.Name(), name)
			data, err := os.ReadFile(p)
			if err != nil {
				continue // entry pruned mid-scan
			}
			payload, err := openEnvelope(data, key)
			if err != nil {
				s.corrupt.Add(1)
				os.Remove(p) // best effort: drop the poisoned entry
				continue
			}
			if err := fn(key, payload); err != nil {
				if err == ErrStopScan {
					return nil
				}
				return err
			}
		}
	}
	return nil
}

// KindStat summarizes one kind's footprint in the store.
type KindStat struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Kinds lists every kind the store may hold, in report order.
func Kinds() []Kind {
	return []Kind{KindAnalysis, KindSelection, KindVariant, KindResult, KindSample, KindModel, KindSweep}
}

// KindCounts walks the current schema generation and returns per-kind
// entry counts and on-disk byte totals (envelope included). Unknown
// subdirectories are reported under their literal kind name, so a
// future schema's entries are never silently invisible.
func (s *Store) KindCounts() map[Kind]KindStat {
	out := map[Kind]KindStat{}
	if s == nil {
		return out
	}
	root := filepath.Join(s.dir, schemaDir())
	kinds, err := os.ReadDir(root)
	if err != nil {
		return out
	}
	for _, kd := range kinds {
		if !kd.IsDir() {
			continue
		}
		kind := Kind(kd.Name())
		stat := out[kind]
		kroot := filepath.Join(root, kd.Name())
		filepath.WalkDir(kroot, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".apx" {
				return nil
			}
			if info, err := d.Info(); err == nil {
				stat.Entries++
				stat.Bytes += info.Size()
			}
			return nil
		})
		out[kind] = stat
	}
	return out
}

// SortedKinds returns the kinds present in counts in deterministic
// report order: the well-known kinds first, then any others sorted.
func SortedKinds(counts map[Kind]KindStat) []Kind {
	known := Kinds()
	seen := map[Kind]bool{}
	var out []Kind
	for _, k := range known {
		if _, ok := counts[k]; ok {
			out = append(out, k)
			seen[k] = true
		}
	}
	var rest []Kind
	for k := range counts {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	return append(out, rest...)
}
