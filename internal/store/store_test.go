package store

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openT(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openT(t)
	key := NewHasher("test").Str("k1").Key()
	payload := []byte("hello, fabric")
	s.Put(KindResult, key, payload)
	got, ok := s.Get(KindResult, key)
	if !ok {
		t.Fatal("expected hit")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q != %q", got, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestPutSkipsIdenticalEntries: Put writes a new or differing entry,
// skips one that holds the same bytes, and overwrites an entry that no
// longer decodes.
func TestPutSkipsIdenticalEntries(t *testing.T) {
	s := openT(t)
	key := NewHasher("test").Str("k1").Key()
	s.Put(KindSample, key, []byte("v1"))
	s.Put(KindSample, key, []byte("v1"))
	if n := s.Stats().Puts; n != 1 {
		t.Fatalf("identical Put wrote %d times, want 1", n)
	}
	s.Put(KindSample, key, []byte("v2"))
	if got, ok := s.Get(KindSample, key); !ok || string(got) != "v2" || s.Stats().Puts != 2 {
		t.Fatalf("changed Put: got %q ok=%v puts=%d, want v2 written", got, ok, s.Stats().Puts)
	}
	p := s.path(KindSample, key)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s.Put(KindSample, key, []byte("v2"))
	if got, ok := s.Get(KindSample, key); !ok || string(got) != "v2" || s.Stats().Puts != 3 {
		t.Fatalf("Put over a damaged entry: got %q ok=%v puts=%d, want it rewritten", got, ok, s.Stats().Puts)
	}
}

func TestGetMissing(t *testing.T) {
	s := openT(t)
	if _, ok := s.Get(KindAnalysis, NewHasher("test").Str("nope").Key()); ok {
		t.Fatal("expected miss")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestKindsAreDisjoint(t *testing.T) {
	s := openT(t)
	key := NewHasher("test").Str("same").Key()
	s.Put(KindAnalysis, key, []byte("analysis"))
	if _, ok := s.Get(KindVariant, key); ok {
		t.Fatal("same key under another kind must miss")
	}
	got, ok := s.Get(KindAnalysis, key)
	if !ok || string(got) != "analysis" {
		t.Fatalf("got %q ok=%v", got, ok)
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	s.Put(KindResult, "k", []byte("x"))
	if _, ok := s.Get(KindResult, "k"); ok {
		t.Fatal("nil store must miss")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("stats %+v", st)
	}
	if b, n := s.DiskBytes(); b != 0 || n != 0 {
		t.Fatalf("disk %d/%d", b, n)
	}
}

// poison rewrites the entry file through fn and verifies the next Get
// detects the damage: counted, deleted, miss — never a wrong payload.
func poison(t *testing.T, fn func([]byte) []byte) {
	t.Helper()
	s := openT(t)
	key := NewHasher("test").Str("victim").Key()
	s.Put(KindResult, key, []byte("precious bytes"))
	p := s.path(KindResult, key)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindResult, key); ok {
		t.Fatal("poisoned entry served as a hit")
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("poisoned entry not deleted: %v", err)
	}
	// The slot is clean again: a fresh Put round-trips.
	s.Put(KindResult, key, []byte("recomputed"))
	if got, ok := s.Get(KindResult, key); !ok || string(got) != "recomputed" {
		t.Fatalf("recompute after poison: got %q ok=%v", got, ok)
	}
}

func TestPoisonTruncatedHeader(t *testing.T) {
	poison(t, func(d []byte) []byte { return d[:10] })
}

func TestPoisonTruncatedPayload(t *testing.T) {
	poison(t, func(d []byte) []byte { return d[:len(d)-3] })
}

func TestPoisonBitFlipPayload(t *testing.T) {
	poison(t, func(d []byte) []byte {
		d[len(d)-1] ^= 0x40
		return d
	})
}

func TestPoisonBitFlipHeader(t *testing.T) {
	poison(t, func(d []byte) []byte {
		d[0] ^= 0x01 // magic
		return d
	})
}

func TestPoisonWrongEnvelopeVersion(t *testing.T) {
	poison(t, func(d []byte) []byte {
		d[4]++ // version field
		return d
	})
}

func TestPoisonLengthMismatch(t *testing.T) {
	poison(t, func(d []byte) []byte {
		return append(d, "trailing garbage"...)
	})
}

func TestPoisonKeyHashMismatch(t *testing.T) {
	// A file copied under the wrong key (e.g. a botched manual cache
	// merge) must not be served.
	s := openT(t)
	k1 := NewHasher("test").Str("a").Key()
	k2 := NewHasher("test").Str("b").Key()
	s.Put(KindResult, k1, []byte("for k1"))
	data, err := os.ReadFile(s.path(KindResult, k1))
	if err != nil {
		t.Fatal(err)
	}
	p2 := s.path(KindResult, k2)
	if err := os.MkdirAll(filepath.Dir(p2), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindResult, k2); ok {
		t.Fatal("entry sealed for k1 served under k2")
	}
}

func TestDiskBytes(t *testing.T) {
	s := openT(t)
	s.Put(KindResult, NewHasher("t").Str("1").Key(), make([]byte, 100))
	s.Put(KindVariant, NewHasher("t").Str("2").Key(), make([]byte, 50))
	b, n := s.DiskBytes()
	if n != 2 {
		t.Fatalf("entries %d", n)
	}
	if want := int64(2*headerSize + 150); b != want {
		t.Fatalf("bytes %d, want %d", b, want)
	}
}

func TestHasherDeterminismAndSeparation(t *testing.T) {
	k1 := NewHasher("d").Str("a").Int(1).Key()
	k2 := NewHasher("d").Str("a").Int(1).Key()
	if k1 != k2 {
		t.Fatal("same material, different keys")
	}
	// Component boundaries matter: ("ab","c") != ("a","bc").
	if NewHasher("d").Str("ab").Str("c").Key() == NewHasher("d").Str("a").Str("bc").Key() {
		t.Fatal("length prefixing failed")
	}
	if NewHasher("d").Ints(1, 2).Key() == NewHasher("d").Ints(1).Int(2).Key() {
		t.Fatal("Ints not length-prefixed")
	}
	if NewHasher("x").Str("a").Key() == NewHasher("y").Str("a").Key() {
		t.Fatal("domain separation failed")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := openT(t)
	key := NewHasher("t").Str("contended").Key()
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				s.Put(KindResult, key, payload)
				if got, ok := s.Get(KindResult, key); ok && !bytes.Equal(got, payload) {
					t.Error("torn read")
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 || st.PutErrs != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFileLockSerializes(t *testing.T) {
	path := t.TempDir() + "/guard"
	var held atomic.Int32
	var count atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := LockFile(path)
			if err != nil {
				t.Error(err)
				return
			}
			if n := held.Add(1); n != 1 {
				t.Errorf("lock held by %d goroutines at once", n)
			}
			time.Sleep(time.Millisecond)
			count.Add(1)
			held.Add(-1)
			if err := l.Unlock(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if count.Load() != 8 {
		t.Fatalf("count %d", count.Load())
	}
}
