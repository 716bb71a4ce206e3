package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// Flags is the shared observability flag set of the CLIs: verbosity and
// log format, span/metric exports, and profiling hooks. Register it on
// a FlagSet, parse, then Setup to obtain the run's Obs bundle and the
// cleanup that flushes exports on exit.
type Flags struct {
	Verbose     bool   // -v: info-level diagnostics
	VeryVerbose bool   // -vv: debug-level diagnostics
	LogFormat   string // -log-format: text | json
	TracePath   string // -trace: Chrome trace_event JSON output file
	TraceTree   string // -trace-tree: span tree text output file ("-" = stderr)
	MetricsPath string // -metrics: metrics registry JSON output file
	CPUProfile  string // -cpuprofile
	MemProfile  string // -memprofile
	PprofAddr   string // -pprof: HTTP listen address for net/http/pprof

	// ForceObs creates the tracer and registry even when no export flag
	// asks for them (apex-eval always measures so it can print the
	// per-stage cost summary).
	ForceObs bool
}

// Register installs the observability flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Verbose, "v", false, "log info-level diagnostics to stderr")
	fs.BoolVar(&f.VeryVerbose, "vv", false, "log debug-level diagnostics to stderr")
	fs.StringVar(&f.LogFormat, "log-format", "text", "diagnostic log format: text or json")
	fs.StringVar(&f.TracePath, "trace", "", "write a Chrome trace_event JSON file of all pipeline spans")
	fs.StringVar(&f.TraceTree, "trace-tree", "", "write the span tree as indented text ('-' for stderr)")
	fs.StringVar(&f.MetricsPath, "metrics", "", "write the metrics registry as JSON")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&f.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
}

// Setup builds the Obs bundle the flags describe, starts profiling and
// the pprof server, and returns a cleanup that stops profiling and
// writes the requested export files. logw receives diagnostics (the
// CLIs pass stderr). The returned Obs is never nil; its Tracer/Metrics
// are nil when nothing asked for them, which is what keeps the
// disabled path free.
func (f *Flags) Setup(logw io.Writer) (*Obs, func() error, error) {
	if f.LogFormat != "text" && f.LogFormat != "json" {
		return nil, nil, fmt.Errorf("obs: -log-format must be text or json, got %q", f.LogFormat)
	}
	verbosity := 0
	if f.Verbose {
		verbosity = 1
	}
	if f.VeryVerbose {
		verbosity = 2
	}
	o := &Obs{Logger: NewLogger(logw, verbosity, f.LogFormat)}

	if f.ForceObs || f.TracePath != "" || f.TraceTree != "" || f.MetricsPath != "" {
		o.Metrics = NewRegistry()
		o.Tracer = NewTracer()
		o.Tracer.LinkMetrics(o.Metrics)
	}

	var stopCPU func() error
	if f.CPUProfile != "" {
		var err error
		stopCPU, err = StartCPUProfile(f.CPUProfile)
		if err != nil {
			return nil, nil, err
		}
	}
	if f.PprofAddr != "" {
		if err := ServePprof(f.PprofAddr); err != nil {
			if stopCPU != nil {
				stopCPU()
			}
			return nil, nil, err
		}
	}

	cleanup := func() error {
		var firstErr error
		keep := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if stopCPU != nil {
			keep(stopCPU())
		}
		if f.MemProfile != "" {
			keep(WriteHeapProfile(f.MemProfile))
		}
		if f.TracePath != "" && o.Tracer != nil {
			keep(writeFile(f.TracePath, func(w io.Writer) error {
				return o.Tracer.WriteChromeTrace(w)
			}))
		}
		if f.TraceTree != "" && o.Tracer != nil {
			if f.TraceTree == "-" {
				fmt.Fprint(logw, o.Tracer.TreeString(true))
			} else {
				keep(writeFile(f.TraceTree, func(w io.Writer) error {
					_, err := io.WriteString(w, o.Tracer.TreeString(true))
					return err
				}))
			}
		}
		if f.MetricsPath != "" && o.Metrics != nil {
			keep(writeFile(f.MetricsPath, func(w io.Writer) error {
				return writeJSON(w, o.Metrics.Snapshot())
			}))
		}
		return firstErr
	}
	return o, cleanup, nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func writeFile(path string, fn func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
