package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoTableExactlyOnce races 32 goroutines over overlapping keys and
// proves every build function ran exactly once and every caller of a key
// observed the same value.
func TestMemoTableExactlyOnce(t *testing.T) {
	const (
		goroutines = 32
		keys       = 5
		callsEach  = 50
	)
	table := &Table[int]{}
	builds := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	got := make([][]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := 0; c < callsEach; c++ {
				k := (g + c) % keys
				v, err := table.Do(context.Background(), fmt.Sprintf("key%d", k), func() (int, error) {
					builds[k].Add(1)
					return 1000 + k, nil
				})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				got[g] = append(got[g], v-1000-k) // 0 iff the expected value
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key%d built %d times, want exactly 1", k, n)
		}
	}
	for g, vals := range got {
		for _, v := range vals {
			if v != 0 {
				t.Fatalf("goroutine %d observed a wrong value", g)
			}
		}
	}
}

// TestMemoTableCachesErrors verifies a failing build is also
// exactly-once: later callers get the same error without re-running it.
func TestMemoTableCachesErrors(t *testing.T) {
	table := &Table[int]{}
	sentinel := errors.New("boom")
	var builds atomic.Int64
	build := func() (int, error) {
		builds.Add(1)
		return 0, sentinel
	}
	if _, err := table.Do(context.Background(), "k", build); !errors.Is(err, sentinel) {
		t.Fatalf("first call err = %v", err)
	}
	if _, err := table.Do(context.Background(), "k", build); !errors.Is(err, sentinel) {
		t.Fatalf("second call err = %v", err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("failing build ran %d times, want 1", n)
	}
}
