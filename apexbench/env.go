package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envStamp identifies the machine and the code a result was measured
// on. The commit comes from run.sh (APEXBENCH_COMMIT, "unknown" outside
// a git checkout); sourceSHA256 identifies the program's sources even
// when there is no commit to name.
type envStamp struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func stampEnv(root string) envStamp {
	commit := os.Getenv("APEXBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return envStamp{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		Commit:       commit,
		SourceSHA256: sourceDigest(root),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod in path order.
func sourceDigest(root string) string {
	var files []string
	for _, dir := range []string{"internal", "cmd"} {
		// A walk error leaves files out of the digest; the digest only
		// identifies the sources, so that is not worth failing a run for.
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
