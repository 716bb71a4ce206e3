package store

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestScanSortedAndComplete(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := map[Key][]byte{}
	for i := 0; i < 20; i++ {
		k := NewHasher("scan-test").Int(i).Key()
		payload := []byte(fmt.Sprintf("payload-%d", i))
		s.Put(KindSample, k, payload)
		want[k] = payload
	}
	// A different kind must not leak into the scan.
	s.Put(KindResult, NewHasher("other").Key(), []byte("other"))

	var keys []Key
	got := map[Key][]byte{}
	err = s.Scan(KindSample, func(k Key, payload []byte) error {
		keys = append(keys, k)
		got[k] = append([]byte(nil), payload...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Scan returned %d entries, want %d (payload mismatch)", len(got), len(want))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("Scan order is not sorted by key: %v", keys)
	}
}

func TestScanSkipsAndDeletesCorrupt(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good := NewHasher("good").Key()
	bad := NewHasher("bad").Key()
	s.Put(KindSample, good, []byte("good"))
	s.Put(KindSample, bad, []byte("bad"))
	// Flip a payload bit in the bad entry.
	p := s.path(KindSample, bad)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var seen []Key
	if err := s.Scan(KindSample, func(k Key, _ []byte) error {
		seen = append(seen, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != good {
		t.Fatalf("Scan visited %v, want only the good entry %s", seen, good)
	}
	if s.Stats().Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", s.Stats().Corrupt)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry was not deleted: %v", err)
	}
}

func TestScanStopsEarly(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Put(KindSample, NewHasher("early").Int(i).Key(), []byte{byte(i)})
	}
	n := 0
	if err := s.Scan(KindSample, func(Key, []byte) error {
		n++
		if n == 3 {
			return ErrStopScan
		}
		return nil
	}); err != nil {
		t.Fatalf("ErrStopScan must not surface: %v", err)
	}
	if n != 3 {
		t.Fatalf("scan visited %d entries after stop, want 3", n)
	}
	wantErr := fmt.Errorf("boom")
	err = s.Scan(KindSample, func(Key, []byte) error { return wantErr })
	if err != wantErr {
		t.Fatalf("Scan error = %v, want the callback's error", err)
	}
}

func TestScanMissingKindIsEmpty(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Scan(KindModel, func(Key, []byte) error {
		t.Fatal("callback invoked on an empty kind")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestKindCounts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Put(KindSample, NewHasher("kc").Int(i).Key(), []byte("abc"))
	}
	s.Put(KindResult, NewHasher("kc-r").Key(), []byte("defg"))

	counts := s.KindCounts()
	if got := counts[KindSample]; got.Entries != 3 || got.Bytes != 3*int64(headerSize+3) {
		t.Fatalf("sample counts = %+v, want 3 entries / %d bytes", got, 3*(headerSize+3))
	}
	if got := counts[KindResult]; got.Entries != 1 || got.Bytes != int64(headerSize+4) {
		t.Fatalf("result counts = %+v", got)
	}
	if _, ok := counts[KindModel]; ok {
		t.Fatal("KindCounts invented an empty kind")
	}
	order := SortedKinds(counts)
	if want := []Kind{KindResult, KindSample}; !reflect.DeepEqual(order, want) {
		t.Fatalf("SortedKinds = %v, want %v", order, want)
	}
}

func TestSampleAndModelKeysAreSensitive(t *testing.T) {
	rk := NewHasher("r").Key()
	if SampleKey(rk, 1) == SampleKey(rk, 2) {
		t.Fatal("SampleKey ignores the feature schema")
	}
	if SampleKey(NewHasher("a").Key(), 1) == SampleKey(NewHasher("b").Key(), 1) {
		t.Fatal("SampleKey ignores the result key")
	}
	fp := NewHasher("fp").Key()
	if ModelKey(fp, 1, "a") == ModelKey(fp, 1, "b") {
		t.Fatal("ModelKey ignores the hyperparameters")
	}
	if ModelKey(fp, 1, "a") == ModelKey(fp, 2, "a") {
		t.Fatal("ModelKey ignores the feature schema")
	}
	if SelectionKey(rk, 1) == SelectionKey(rk, 2) {
		t.Fatal("SelectionKey ignores k")
	}
	if SelectionKey(NewHasher("a").Key(), 1) == SelectionKey(NewHasher("b").Key(), 1) {
		t.Fatal("SelectionKey ignores the analysis key")
	}
}
