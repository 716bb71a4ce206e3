package obs

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile begins writing a CPU profile to path and returns the
// function that stops profiling and closes the file.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeapProfile writes a GC-fresh heap profile to path.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("obs: memprofile: %w", err)
	}
	return nil
}

// ServePprof serves net/http/pprof (/debug/pprof) on addr in a
// background goroutine. The listen error is returned synchronously so a
// bad -pprof address fails the CLI immediately.
func ServePprof(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: pprof listen %s: %w", addr, err)
	}
	go http.Serve(ln, nil) // lint:allow-diag: serves until process exit
	return nil
}
