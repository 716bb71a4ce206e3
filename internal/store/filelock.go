package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// FileLock is an advisory, inter-process exclusive lock used by
// multi-file protocols layered on the store (UpdateFile's
// read-merge-rewrite must not interleave between processes). Individual
// cache entries never need it — they are immutable content-addressed
// files installed by atomic rename.
//
// On unix the lock is flock(2) on a dedicated .lock file, so a killed
// process can never leave the lock held (the kernel drops it with the
// descriptor). Elsewhere a create-exclusive lock file with stale-lock
// takeover approximates the same contract.
type FileLock struct {
	path string
	f    *os.File
}

// LockFile acquires the exclusive lock at path (a .lock sibling of the
// protected file), blocking until it is available.
func LockFile(path string) (*FileLock, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: lock %s: %w", path, err)
	}
	f, err := lockExclusive(path)
	if err != nil {
		return nil, fmt.Errorf("store: lock %s: %w", path, err)
	}
	return &FileLock{path: path, f: f}, nil
}

// TryLockFile acquires the exclusive lock at path without blocking. It
// returns (nil, false, nil) when another process (or goroutine) holds
// the lock — the caller skips its turn rather than queueing, which is
// what best-effort maintenance work (cache pruning) wants.
func TryLockFile(path string) (*FileLock, bool, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, false, fmt.Errorf("store: lock %s: %w", path, err)
	}
	f, ok, err := tryLockExclusive(path)
	if err != nil {
		return nil, false, fmt.Errorf("store: lock %s: %w", path, err)
	}
	if !ok {
		return nil, false, nil
	}
	return &FileLock{path: path, f: f}, true, nil
}

// Unlock releases the lock. Safe to call once on a nil receiver.
func (l *FileLock) Unlock() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := unlock(l.path, l.f)
	l.f = nil
	return err
}

// retryDelay paces lock acquisition on the fallback (non-flock) path.
const retryDelay = 10 * time.Millisecond

// UpdateFile is the read-merge-rewrite protocol of the snapshot files
// layered on the store (the sweep checkpoint, the daemon journal).
// Under the exclusive lock at path+".lock" it reads the current file
// (cur is nil when the file does not exist), calls update, and installs
// the returned bytes atomically. Writers sharing one file serialize, so
// a merging update never loses another writer's state; readers see the
// old file or the new one, never a partial write. An update error
// leaves the file untouched and is returned as is.
func UpdateFile(path string, update func(cur []byte) ([]byte, error)) error {
	return withFileLock(path, func(cur Current) error {
		data, err := cur.Read()
		if err != nil {
			return err
		}
		next, err := update(data)
		if err != nil {
			return err
		}
		return writeAtomic(path, writeBytes(next))
	})
}

// UpdateFileStream is UpdateFile for writers that keep the file's
// merged state in memory. Under the same lock, update is handed the
// current file's stat and reads its bytes only if it must (Current.Is
// tells it whether the file is still a generation it installed); it
// returns a function that streams the next generation into the
// temporary file through a buffered writer, whose errors are sticky and
// checked after the final flush. On success UpdateFileStream returns the
// installed generation, which the caller closes once it no longer
// compares against it. The generation is nil if the installed file
// could not be pinned; a nil generation matches nothing, so the next
// update reads the file.
func UpdateFileStream(path string, update func(cur Current) (func(*bufio.Writer) error, error)) (*Generation, error) {
	var gen *Generation
	err := withFileLock(path, func(cur Current) error {
		write, err := update(cur)
		if err != nil {
			return err
		}
		if err := writeAtomic(path, write); err != nil {
			return err
		}
		// Still under the lock, so the file at path is the one just
		// installed.
		gen, _ = openGeneration(path)
		return nil
	})
	return gen, err
}

// withFileLock runs fn under the exclusive lock at path+".lock", handing
// it path's stat taken under the lock.
func withFileLock(path string, fn func(cur Current) error) error {
	lock, err := LockFile(path + ".lock")
	if err != nil {
		return err
	}
	defer lock.Unlock()
	info, err := os.Stat(path) // info is nil when err is set
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: stat %s: %w", path, err)
	}
	return fn(Current{Info: info, path: path})
}

// Current is the file an UpdateFileStream update replaces.
type Current struct {
	// Info is the file's stat, taken under the lock; nil when the file
	// does not exist.
	Info os.FileInfo
	path string
}

// Read returns the current file's bytes, nil when it does not exist.
func (c Current) Read() ([]byte, error) {
	if c.Info == nil {
		return nil, nil
	}
	data, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", c.path, err)
	}
	return data, nil
}

// Is reports whether the current file is still generation g: the same
// file (os.SameFile) with the same size and modification time. Every
// writer of the protocol installs a new file by rename, and g's open
// descriptor keeps its inode from being reused by such a file, so
// another writer's update always fails the check; an in-place rewrite
// changes the size or the modification time. A nil g matches nothing.
func (c Current) Is(g *Generation) bool {
	return c.Info != nil && g != nil && os.SameFile(c.Info, g.info) &&
		c.Info.Size() == g.info.Size() && c.Info.ModTime().Equal(g.info.ModTime())
}

// Generation is one installed generation of a file written by
// UpdateFileStream: its stat and a read-only descriptor that keeps the
// inode allocated while the holder compares against it.
type Generation struct {
	f    *os.File
	info os.FileInfo
}

// Close releases the generation's descriptor. Safe on a nil receiver.
func (g *Generation) Close() error {
	if g == nil {
		return nil
	}
	return g.f.Close()
}

// writeBytes is the write function of a ready-made byte slice.
func writeBytes(data []byte) func(*bufio.Writer) error {
	return func(w *bufio.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// writeAtomic streams write's output into a temporary file in path's
// directory and renames it over path. rename(2) is atomic on POSIX
// filesystems, so concurrent writers and killed processes can never
// leave a partially written file visible under path.
func writeAtomic(path string, write func(*bufio.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w := bufio.NewWriter(tmp)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	return nil
}

// openGeneration pins the file at name.
func openGeneration(name string) (*Generation, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Generation{f: f, info: info}, nil
}
