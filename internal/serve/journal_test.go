package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	a := &Job{ID: "j-a", Seq: 3, State: StateQueued, Kind: KindAnalyze, Client: "c"}
	b := &Job{ID: "j-b", Seq: 5, State: StateDone, Kind: KindEvaluate, Client: "c",
		Result: []byte(`{"x":1}`), Finished: time.Unix(1, 0).UTC()}
	if err := saveJournal(path, map[string]*Job{"j-a": a, "j-b": b}); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := loadJournal(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d jobs, want 2", len(got))
	}
	if got["j-a"].State != StateQueued || got["j-b"].State != StateDone {
		t.Fatalf("states = %s/%s", got["j-a"].State, got["j-b"].State)
	}
	if string(got["j-b"].Result) != `{"x":1}` {
		t.Fatalf("result = %s", got["j-b"].Result)
	}
}

func TestJournalMergeBySeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := saveJournal(path, map[string]*Job{
		"j-a": {ID: "j-a", Seq: 4, State: StateDone},
	}); err != nil {
		t.Fatalf("save newer: %v", err)
	}
	// A stale flush (lower Seq) must not regress the on-disk state.
	if err := saveJournal(path, map[string]*Job{
		"j-a": {ID: "j-a", Seq: 2, State: StateRunning},
		"j-b": {ID: "j-b", Seq: 1, State: StateQueued},
	}); err != nil {
		t.Fatalf("save stale: %v", err)
	}
	got, err := loadJournal(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got["j-a"].State != StateDone || got["j-a"].Seq != 4 {
		t.Fatalf("j-a = %s seq %d, want done seq 4", got["j-a"].State, got["j-a"].Seq)
	}
	if _, ok := got["j-b"]; !ok {
		t.Fatal("j-b missing: unknown on-disk jobs must be preserved")
	}
}

func TestJournalCorruptLoadFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadJournal(path); err == nil {
		t.Fatal("load of corrupt journal succeeded, want error (operator decides)")
	}
	// Missing file is the one benign case.
	got, err := loadJournal(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || len(got) != 0 {
		t.Fatalf("load missing = (%v, %v), want empty map", got, err)
	}
}

func TestJournalVersionSkewFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(path, []byte(`{"version":99,"jobs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadJournal(path)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("load version-99 journal = %v, want version error", err)
	}
}

func TestJournalTerminalRetentionCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	jobs := map[string]*Job{}
	for i := 0; i < journalKeepTerminal+20; i++ {
		id := fmt.Sprintf("j-%05d", i)
		jobs[id] = &Job{ID: id, Seq: 1, State: StateDone,
			Finished: time.Unix(int64(i), 0).UTC()}
	}
	// One pending job must survive regardless of the cap.
	jobs["j-pending"] = &Job{ID: "j-pending", Seq: 1, State: StateQueued}
	if err := saveJournal(path, jobs); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := loadJournal(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(got) != journalKeepTerminal+1 {
		t.Fatalf("retained %d jobs, want %d", len(got), journalKeepTerminal+1)
	}
	if _, ok := got["j-pending"]; !ok {
		t.Fatal("pending job evicted by the terminal cap")
	}
	// The newest terminal jobs win; the oldest were dropped.
	if _, ok := got[fmt.Sprintf("j-%05d", journalKeepTerminal+19)]; !ok {
		t.Fatal("newest terminal job missing")
	}
	if _, ok := got["j-00000"]; ok {
		t.Fatal("oldest terminal job retained, want dropped")
	}
}

// TestJournalBytesPinned pins the journal file format: compact JSON,
// jobs sorted by ID, Seq-wins merge, results embedded as JSON. A
// restarted daemon reads journals written by older binaries, so the
// bytes must not drift.
func TestJournalBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	created := time.Unix(1700000000, 0).UTC()
	if err := saveJournal(path, map[string]*Job{
		"j-b": {ID: "j-b", Seq: 2, Client: "c1", Kind: KindEvaluate, State: StateRunning,
			Params: Params{App: "harris", K: 2, Pipelined: true}, Created: created},
	}); err != nil {
		t.Fatal(err)
	}
	if err := saveJournal(path, map[string]*Job{
		"j-b": {ID: "j-b", Seq: 1, Client: "stale", State: StateQueued},
		"j-a": {ID: "j-a", Seq: 7, Client: "c2", Kind: KindAnalyze, State: StateDone, Attempts: 1,
			Params: Params{App: "camera", Top: 3}, Result: []byte(`{"x": [1, 2]}`),
			Created: created, Started: created.Add(time.Second), Finished: created.Add(2 * time.Second)},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"version":1,"jobs":[{"id":"j-a","seq":7,"client":"c2","kind":"analyze","params":{"app":"camera","top":3},"state":"done","attempts":1,"result":{"x":[1,2]},"not_before":"0001-01-01T00:00:00Z","created":"2023-11-14T22:13:20Z","started":"2023-11-14T22:13:21Z","finished":"2023-11-14T22:13:22Z"},{"id":"j-b","seq":2,"client":"c1","kind":"evaluate","params":{"app":"harris","k":2,"pipelined":true},"state":"running","attempts":0,"not_before":"0001-01-01T00:00:00Z","created":"2023-11-14T22:13:20Z","started":"0001-01-01T00:00:00Z","finished":"0001-01-01T00:00:00Z"}]}`
	if string(got) != want {
		t.Fatalf("journal bytes changed:\n%s", got)
	}
}
