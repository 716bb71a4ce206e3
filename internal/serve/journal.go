package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/store"
)

// Journal protocol: the journal file is a JSON snapshot of every job
// the daemon has accepted, rewritten through store.UpdateFile (locked,
// atomic), and every write merges the on-disk snapshot first with
// higher per-job Seq winning — so a daemon racing its own shutdown
// flush, or two daemons briefly sharing a journal during a handover,
// can only ever advance a job's state, never resurrect an older one.
//
// What the journal guarantees after a crash: every job that was
// acknowledged with 202 is present, either terminal (with its result)
// or pending (queued/running — running collapses to queued on load,
// since the work was lost with the process). A restarted daemon
// re-enqueues the pending jobs; with the content-addressed store
// attached, re-running them reproduces byte-identical results.

// journalVersion names the journal format.
const journalVersion = 1

type journalFile struct {
	Version int    `json:"version"`
	Jobs    []*Job `json:"jobs"`
}

// journalKeepTerminal bounds how many terminal jobs a save retains
// (newest first by Finished, then ID), so a long-lived daemon's journal
// does not grow without bound. Pending jobs are always kept.
const journalKeepTerminal = 1024

// loadJournal reads the job snapshot. A missing file returns an empty
// map; a present-but-unreadable file returns an error — silently
// forgetting accepted jobs would be the one unforgivable failure mode
// of a crash-safe journal, so the operator decides (delete the file to
// start fresh).
func loadJournal(path string) (map[string]*Job, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]*Job{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: read journal: %w", err)
	}
	jobs, err := parseJournal(data)
	if err != nil {
		return nil, fmt.Errorf("serve: parse journal %s: %w", path, err)
	}
	return jobs, nil
}

// parseJournal decodes a snapshot into jobs by ID.
func parseJournal(data []byte) (map[string]*Job, error) {
	var jf journalFile
	if err := json.Unmarshal(data, &jf); err != nil {
		return nil, err
	}
	if jf.Version != journalVersion {
		return nil, fmt.Errorf("version %d, want %d", jf.Version, journalVersion)
	}
	jobs := map[string]*Job{}
	for _, j := range jf.Jobs {
		if j != nil && j.ID != "" {
			jobs[j.ID] = j
		}
	}
	return jobs, nil
}

// journal is a Server's handle on its journal file. It keeps the
// merged on-disk state in memory: each job's merge keys (ID, Seq, State,
// Finished) and its compact JSON encoding. A save whose file is still
// the generation this handle installed (store.Current.Is) skips the read
// and the parse, re-encodes only the incoming jobs whose Seq wins, and
// streams the snapshot out piece by piece. Any other file (another
// daemon during a handover, a manual edit, a corrupt or missing file) is
// read, parsed and merged in full, and the cache is rebuilt from it —
// the same Seq-wins merge either way, and the same bytes on disk.
type journal struct {
	path string

	mu        sync.Mutex
	byID      map[string]*journalEntry
	sorted    []*journalEntry   // by ID: the file's job order
	terminal  int               // terminal entries, against journalKeepTerminal
	installed *store.Generation // the file this handle wrote last; nil = unknown
	reparses  int               // full reads of the file (the fallback path)
}

// journalEntry is one job as the journal file holds it.
type journalEntry struct {
	id       string
	seq      int64
	terminal bool
	finished time.Time
	enc      []byte // compact JSON of the job
}

func newJournal(path string) *journal {
	return &journal{path: path, byID: map[string]*journalEntry{}}
}

// save merges jobs into the on-disk snapshot and rewrites it
// atomically. Jobs with a higher Seq replace their on-disk generation;
// unknown on-disk jobs are preserved.
func (jl *journal) save(jobs ...*Job) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	gen, err := store.UpdateFileStream(jl.path, func(cur store.Current) (func(*bufio.Writer) error, error) {
		if !cur.Is(jl.installed) {
			if err := jl.reload(cur); err != nil {
				return nil, err
			}
		}
		for _, j := range jobs {
			if err := jl.merge(j); err != nil {
				return nil, err
			}
		}
		jl.retain()
		return jl.write, nil
	})
	// A failed save may have left the cache ahead of the file; nil makes
	// the next save rebuild it from disk.
	jl.installed.Close()
	jl.installed = gen
	if err != nil {
		return fmt.Errorf("serve: save journal: %w", err)
	}
	return nil
}

// release drops the installed generation; the next save reads the file
// in full.
func (jl *journal) release() {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.installed.Close()
	jl.installed = nil
}

// reload rebuilds the cache from the current file. An absent or corrupt
// snapshot (the machine died mid-write before the rename left an older
// generation, or manual damage) leaves it empty: the jobs being saved
// are the best state there is.
func (jl *journal) reload(cur store.Current) error {
	clear(jl.byID)
	jl.sorted, jl.terminal = jl.sorted[:0], 0
	if cur.Info == nil {
		return nil
	}
	data, err := cur.Read()
	if err != nil {
		return err
	}
	jl.reparses++
	jobs, err := parseJournal(data)
	if err != nil {
		return nil
	}
	for _, j := range jobs {
		if err := jl.merge(j); err != nil {
			return err
		}
	}
	return nil
}

// merge applies one job under the Seq-wins rule, re-encoding it only
// when it wins.
func (jl *journal) merge(j *Job) error {
	old, ok := jl.byID[j.ID]
	if ok && old.seq >= j.Seq {
		return nil
	}
	enc, err := json.Marshal(j)
	if err != nil {
		return err
	}
	e := journalEntry{id: j.ID, seq: j.Seq, terminal: j.State.terminal(), finished: j.Finished, enc: enc}
	if e.terminal {
		jl.terminal++
	}
	if ok {
		if old.terminal {
			jl.terminal--
		}
		*old = e
		return nil
	}
	i := jl.index(j.ID)
	jl.sorted = append(jl.sorted, nil)
	copy(jl.sorted[i+1:], jl.sorted[i:])
	jl.sorted[i] = &e
	jl.byID[j.ID] = &e
	return nil
}

// index is the position of id in sorted, or where it would go.
func (jl *journal) index(id string) int {
	return sort.Search(len(jl.sorted), func(i int) bool { return jl.sorted[i].id >= id })
}

// evictsBefore is the retention order of terminal jobs: a job that
// finished earlier leaves first, and of two that finished at the same
// time, the one with the larger ID.
func evictsBefore(aFinished time.Time, aID string, bFinished time.Time, bID string) bool {
	if !aFinished.Equal(bFinished) {
		return aFinished.Before(bFinished)
	}
	return aID > bID
}

// retain applies the terminal cap: past journalKeepTerminal terminal
// jobs, the first by evictsBefore are dropped, one linear scan each — a
// steady-state save overflows the cap by one job.
func (jl *journal) retain() {
	for jl.terminal > journalKeepTerminal {
		var oldest *journalEntry
		for _, e := range jl.sorted {
			if e.terminal && (oldest == nil || evictsBefore(e.finished, e.id, oldest.finished, oldest.id)) {
				oldest = e
			}
		}
		i := jl.index(oldest.id)
		jl.sorted = append(jl.sorted[:i], jl.sorted[i+1:]...)
		delete(jl.byID, oldest.id)
		jl.terminal--
	}
}

// write streams the snapshot — {"version":1,"jobs":[…]}, jobs in ID
// order — exactly as json.Marshal renders a journalFile. The writer's
// errors are sticky and surface at its flush. Compact, deliberately: an
// indenting encoder would re-indent the embedded Result RawMessage, and a
// result's bytes must survive the journal round trip untouched (the
// byte-identical resume guarantee).
func (jl *journal) write(w *bufio.Writer) error {
	fmt.Fprintf(w, `{"version":%d,"jobs":`, journalVersion)
	if len(jl.sorted) == 0 {
		w.WriteString("null}")
		return nil
	}
	for i, e := range jl.sorted {
		if i == 0 {
			w.WriteByte('[')
		} else {
			w.WriteByte(',')
		}
		w.Write(e.enc)
	}
	w.WriteString("]}")
	return nil
}
