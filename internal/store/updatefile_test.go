package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestUpdateFileConcurrentMerge: writers that each merge their own key
// into one shared file serialize on the lock, so no key is lost.
func TestUpdateFileConcurrentMerge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "snap.json")
	const writers = 16
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- UpdateFile(path, func(cur []byte) ([]byte, error) {
				m := map[string]int{}
				if cur != nil {
					if err := json.Unmarshal(cur, &m); err != nil {
						return nil, err
					}
				}
				m[fmt.Sprintf("k%02d", i)] = i
				return json.Marshal(m)
			})
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != writers {
		t.Fatalf("merged %d keys, want %d: %v", len(m), writers, m)
	}
}

// TestUpdateFileErrorLeavesFileUntouched: a failing update returns its
// error, keeps the old bytes, and leaves no temporary file behind.
func TestUpdateFileErrorLeavesFileUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	old := []byte(`{"keep":1}`)
	if err := UpdateFile(path, func(cur []byte) ([]byte, error) {
		if cur != nil {
			t.Errorf("first update saw %q, want nil for a missing file", cur)
		}
		return old, nil
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := UpdateFile(path, func(cur []byte) ([]byte, error) {
		if !bytes.Equal(cur, old) {
			t.Errorf("update saw %q, want %q", cur, old)
		}
		return []byte("partial"), boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("UpdateFile = %v, want the update's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("file = %q after a failed update, want %q", got, old)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if n := e.Name(); n != "snap.json" && n != "snap.json.lock" {
			t.Fatalf("stray file %q left in the directory", n)
		}
	}
}

// TestUpdateFileStreamGeneration: the generation an update installs
// matches the file until another writer replaces it or rewrites it in
// place, and the streamed bytes are what lands on disk.
func TestUpdateFileStreamGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	stream := func(data string, check func(Current)) *Generation {
		t.Helper()
		gen, err := UpdateFileStream(path, func(cur Current) (func(*bufio.Writer) error, error) {
			check(cur)
			return func(w *bufio.Writer) error {
				w.WriteString(data)
				return nil
			}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}
	first := stream("one", func(cur Current) {
		if cur.Info != nil || cur.Is(nil) {
			t.Errorf("missing file: Info %v, Is(nil) %v", cur.Info, cur.Is(nil))
		}
	})
	defer first.Close()
	second := stream("two", func(cur Current) {
		if !cur.Is(first) {
			t.Error("the file this writer installed does not match its generation")
		}
	})
	defer second.Close()
	if got, err := os.ReadFile(path); err != nil || string(got) != "two" {
		t.Fatalf("file = %q, %v; want the streamed bytes", got, err)
	}
	if err := UpdateFile(path, func(cur []byte) ([]byte, error) { return []byte("three"), nil }); err != nil {
		t.Fatal(err)
	}
	stream("four", func(cur Current) {
		if cur.Is(second) {
			t.Error("a file another writer installed matches an older generation")
		}
	}).Close()

	third := stream("five", func(Current) {})
	defer third.Close()
	if err := os.WriteFile(path, []byte("rewritten in place"), 0o644); err != nil {
		t.Fatal(err)
	}
	stream("six", func(cur Current) {
		if cur.Is(third) {
			t.Error("an in-place rewrite matches the generation it overwrote")
		}
	}).Close()
}
