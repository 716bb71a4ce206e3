// Package store is the persistent, content-addressed result cache under
// the evaluation pipeline. It maps fingerprint keys — hashes over the
// application graph's canonical encoding, the variant identity, the
// fabric configuration, the placement seed, and the full evaluation and
// mining option set — to versioned, checksummed binary encodings of
// core.Analysis, core.PEVariant, and core.Result values.
//
// The store sits *under* the in-process singleflight memo tables of the
// evaluation harness (internal/eval), which also serves every sweep
// cell (internal/sweep): a memo miss
// consults the disk before computing, and a computed value is written
// back, so repeated and interrupted runs — in one process or many — only
// ever pay for cells nobody has computed before.
//
// Durability protocol: every entry is a single file written via
// write-temp-then-rename in the same directory, so readers can never
// observe a partial entry and concurrent writers of the same key settle
// on one complete value (both wrote identical bytes — keys are content
// fingerprints). A corrupt entry (truncated file, flipped bit, stale
// format version, key mismatch) is detected by the envelope checks on
// read, counted, deleted best-effort, and reported as a miss — the caller
// recomputes and rewrites it. No locking is needed for entries;
// LockFile exposes an advisory file lock, and UpdateFile the locked
// read-merge-rewrite built on it, for the snapshot files layered on top
// (the sweep checkpoint, the daemon journal).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/wire"
)

// SchemaVersion names the on-disk format and, transitively, the
// algorithm revision of everything the cached values depend on (mining,
// merging, rule synthesis, placement, routing, metric roll-ups). It is
// part of the storage path, so bumping it orphans — rather than
// misreads — every older entry. Bump it whenever a pipeline change may
// alter any cached value for an unchanged key.
const SchemaVersion = 1

// Kind partitions the key space by value type.
type Kind string

const (
	KindAnalysis Kind = "analysis"
	KindVariant  Kind = "variant"
	KindResult   Kind = "result"
	// KindSelection holds the canonical codes of an analysis's first k
	// selected patterns (core.SelectPatterns), in pick order.
	KindSelection Kind = "selection"
	// KindSample holds learned-cost-model training samples: the feature
	// vector and PnR-vs-postmap labels of one oracle-evaluated sweep cell.
	KindSample Kind = "sample"
	// KindModel holds serialized cost models keyed by their full training
	// provenance (run fingerprint + feature schema + hyperparameters).
	KindModel Kind = "model"
	KindSweep Kind = "sweep"
)

// envelope layout:
//
//	magic   [4]byte  "APXC"
//	version uint16   envelopeVersion (little endian)
//	keyhash [32]byte sha256 of the entry key string
//	paysum  [32]byte sha256 of the payload
//	paylen  uint32   payload length (little endian)
//	payload [paylen]byte
const (
	envelopeVersion = 1
	headerSize      = 4 + 2 + 32 + 32 + 4
)

var magic = [4]byte{'A', 'P', 'X', 'C'}

// Stats counts the store's cache effectiveness since Open.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	Corrupt     int64 `json:"corrupt"` // entries failing envelope checks, recomputed
	PutErrs     int64 `json:"put_errors"`
	Pruned      int64 `json:"pruned,omitempty"`       // entries evicted by the size budget
	PrunedBytes int64 `json:"pruned_bytes,omitempty"` // bytes reclaimed by eviction
}

// Store is a content-addressed cache rooted at one directory. All
// methods are safe for concurrent use by any number of goroutines and
// processes.
type Store struct {
	dir string

	hits    atomic.Int64
	misses  atomic.Int64
	puts    atomic.Int64
	corrupt atomic.Int64
	putErrs atomic.Int64

	// Size budget (SetMaxBytes); see prune.go.
	maxBytes    atomic.Int64
	approxBytes atomic.Int64
	pruned      atomic.Int64
	prunedBytes atomic.Int64
}

// schemaDir is the per-schema-generation subdirectory name.
func schemaDir() string { return fmt.Sprintf("v%d", SchemaVersion) }

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty cache directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, schemaDir()), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps (kind, key) to the entry file. Keys are hex fingerprints;
// the first byte fans entries out over 256 subdirectories.
func (s *Store) path(kind Kind, key Key) string {
	k := string(key)
	sub := "xx"
	if len(k) >= 2 {
		sub = k[:2]
	}
	return filepath.Join(s.dir, schemaDir(), string(kind), sub, k+".apx")
}

// Get returns the payload stored under (kind, key), or ok=false on any
// miss — including a corrupt or version-skewed entry, which is counted,
// deleted best-effort, and left for the caller to recompute.
func (s *Store) Get(kind Kind, key Key) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	p := s.path(kind, key)
	data, err := os.ReadFile(p)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, err := openEnvelope(data, key)
	if err != nil {
		s.corrupt.Add(1)
		s.misses.Add(1)
		os.Remove(p) // best effort: drop the poisoned entry
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Put stores payload under (kind, key) atomically. An entry that
// already holds exactly these bytes is left alone, since a rerun
// re-derives the values an earlier run stored; any other entry,
// including an undecodable one, is overwritten. Storage failures are
// counted and swallowed: the cache is an accelerator, never a
// correctness dependency, so a full disk degrades to recomputation.
func (s *Store) Put(kind Kind, key Key, payload []byte) {
	if s == nil {
		return
	}
	p := s.path(kind, key)
	sealed := sealEnvelope(key, payload)
	if cur, err := os.ReadFile(p); err == nil && bytes.Equal(cur, sealed) {
		return
	}
	if err := writeAtomic(p, writeBytes(sealed)); err != nil {
		s.putErrs.Add(1)
		return
	}
	s.puts.Add(1)
	s.notePut(len(payload))
}

// sealEnvelope wraps payload in the versioned, checksummed envelope.
func sealEnvelope(key Key, payload []byte) []byte {
	buf := make([]byte, 0, headerSize+len(payload))
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, envelopeVersion)
	kh := sha256.Sum256([]byte(key))
	buf = append(buf, kh[:]...)
	ph := sha256.Sum256(payload)
	buf = append(buf, ph[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return buf
}

// openEnvelope validates every envelope field and returns the payload.
func openEnvelope(data []byte, key Key) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("store: truncated header (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("store: bad magic")
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != envelopeVersion {
		return nil, fmt.Errorf("store: envelope version %d, want %d", v, envelopeVersion)
	}
	kh := sha256.Sum256([]byte(key))
	if [32]byte(data[6:38]) != kh {
		return nil, fmt.Errorf("store: key hash mismatch")
	}
	wantSum := [32]byte(data[38:70])
	paylen := binary.LittleEndian.Uint32(data[70:74])
	payload := data[headerSize:]
	if uint32(len(payload)) != paylen {
		return nil, fmt.Errorf("store: payload length %d, header says %d", len(payload), paylen)
	}
	if sha256.Sum256(payload) != wantSum {
		return nil, fmt.Errorf("store: payload checksum mismatch")
	}
	return payload, nil
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		Corrupt:     s.corrupt.Load(),
		PutErrs:     s.putErrs.Load(),
		Pruned:      s.pruned.Load(),
		PrunedBytes: s.prunedBytes.Load(),
	}
}

// DiskBytes walks the store and returns total bytes and entry count of
// the current schema generation.
func (s *Store) DiskBytes() (bytes int64, entries int) {
	if s == nil {
		return 0, 0
	}
	root := filepath.Join(s.dir, schemaDir())
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".apx" {
			return nil
		}
		if info, err := d.Info(); err == nil {
			bytes += info.Size()
			entries++
		}
		return nil
	})
	return bytes, entries
}

// Key is a content fingerprint: the lowercase hex SHA-256 of the key
// material written through a Hasher.
type Key string

// Hasher accumulates key material. The writing order is part of the key,
// and every component is length-prefixed, so distinct component
// sequences can never collide by concatenation.
type Hasher struct {
	e wire.Enc
}

// NewHasher starts a key with a domain label (e.g. "analysis").
func NewHasher(domain string) *Hasher {
	h := &Hasher{}
	h.Str(domain)
	h.Int(SchemaVersion)
	return h
}

// Str appends a length-prefixed string component.
func (h *Hasher) Str(s string) *Hasher {
	h.e.Str(s)
	return h
}

// Int appends an integer component.
func (h *Hasher) Int(v int) *Hasher { return h.Int64(int64(v)) }

// Int64 appends a 64-bit integer component.
func (h *Hasher) Int64(v int64) *Hasher {
	h.e.Uvarint(9)
	h.e.Buf = binary.LittleEndian.AppendUint64(h.e.Buf, uint64(v))
	return h
}

// Ints appends a length-prefixed integer-list component.
func (h *Hasher) Ints(vs ...int) *Hasher {
	h.Int(len(vs))
	for _, v := range vs {
		h.Int(v)
	}
	return h
}

// Bool appends a boolean component.
func (h *Hasher) Bool(v bool) *Hasher {
	if v {
		return h.Int(1)
	}
	return h.Int(0)
}

// Bytes appends a length-prefixed raw byte component.
func (h *Hasher) Bytes(b []byte) *Hasher {
	h.e.Uvarint(uint64(len(b)))
	h.e.Buf = append(h.e.Buf, b...)
	return h
}

// Key finalizes the fingerprint.
func (h *Hasher) Key() Key {
	sum := sha256.Sum256(h.e.Buf)
	return Key(hex.EncodeToString(sum[:]))
}
