package store

import (
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
	lock, err := LockFile(path + ".lock")
	if err != nil {
		return err
	}
	defer lock.Unlock()
	cur, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: read %s: %w", path, err)
	}
	next, err := update(cur)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, next)
}

// writeFileAtomic writes data to a temporary file in path's directory
// and renames it over path. rename(2) is atomic on POSIX filesystems,
// so concurrent writers and killed processes can never leave a
// partially written file visible under path.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = tmp.Write(data)
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
