package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/store"
)

// Checkpoint protocol. The checkpoint file is a JSON snapshot of every
// successfully completed cell, tagged with the grid fingerprint. Writes
// go through store.UpdateFile (locked, atomic), and each write merges
// the on-disk snapshot first — so two sweeps sharing one checkpoint
// file (or a sweep racing its own SIGINT flush) can only ever add
// cells, never lose them.
// A fingerprint mismatch means the file belongs to a different grid (or
// an older registry): resume ignores it, and the next flush overwrites
// it wholesale.

type checkpointFile struct {
	Fingerprint string       `json:"fingerprint"`
	Done        []CellResult `json:"done"`
}

// loadCheckpoint reads the completed-cell snapshot for the given run
// fingerprint. A missing file returns an empty map with matched=true; a
// present file whose fingerprint differs returns matched=false (the
// file belongs to a different grid, registry, or triage configuration —
// Run refuses to resume over it, since mixing cells from two
// configurations would silently corrupt the report); a
// present-but-unreadable file returns an error, since silently
// recomputing a sweep the user asked to resume would be surprising.
func loadCheckpoint(path string, fp store.Key) (done map[int]CellResult, matched bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[int]CellResult{}, true, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("sweep: read checkpoint: %w", err)
	}
	done, matched, err = parseCheckpoint(data, fp)
	if err != nil {
		return nil, false, fmt.Errorf("sweep: parse checkpoint %s: %w", path, err)
	}
	return done, matched, nil
}

// parseCheckpoint decodes a snapshot, keeping its successful cells when
// the fingerprint matches.
func parseCheckpoint(data []byte, fp store.Key) (done map[int]CellResult, matched bool, err error) {
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, false, err
	}
	done = map[int]CellResult{}
	if cf.Fingerprint != string(fp) {
		return done, false, nil
	}
	for _, r := range cf.Done {
		if r.Err == "" {
			done[r.Index] = r
		}
	}
	return done, true, nil
}

// saveCheckpoint merges the given completed cells into the on-disk
// snapshot and rewrites it atomically.
func saveCheckpoint(path string, fp store.Key, done map[int]CellResult) error {
	err := store.UpdateFile(path, func(cur []byte) ([]byte, error) {
		merged, _, err := parseCheckpoint(cur, fp)
		if err != nil {
			// Absent or corrupt snapshot (e.g. the machine died mid-write
			// before the rename, leaving an older generation): start over
			// from ours.
			merged = map[int]CellResult{}
		}
		for idx, r := range done {
			merged[idx] = r
		}
		cf := checkpointFile{Fingerprint: string(fp)}
		for _, r := range merged {
			cf.Done = append(cf.Done, r)
		}
		sort.Slice(cf.Done, func(i, j int) bool { return cf.Done[i].Index < cf.Done[j].Index })
		return json.MarshalIndent(&cf, "", " ")
	})
	if err != nil {
		return fmt.Errorf("sweep: save checkpoint: %w", err)
	}
	return nil
}
