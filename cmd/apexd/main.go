// Command apexd is the APEX evaluation daemon: a JSON-over-HTTP job
// server (see internal/serve) exposing analyze / generate / evaluate /
// sweep / compile jobs over an asynchronous bounded queue running on the
// shared evaluation harness, with the persistent content-addressed store
// (-cache-dir) as the cross-request cache.
//
// Robustness:
//
//   - the queue is bounded (-queue-depth): submissions over the bound
//     get 429 + Retry-After; workers drain clients round-robin so no
//     client starves another;
//   - per-client token-bucket rate limiting (-rate, -burst);
//   - each job attempt is bounded by -job-timeout and retried with
//     jittered exponential backoff (-retries, -retry-backoff) when its
//     failure is retryable under the internal/fault taxonomy;
//   - -journal makes accepted jobs crash-safe: a killed daemon restarts,
//     re-enqueues journaled pending jobs, and (through the store)
//     reproduces byte-identical results;
//   - SIGTERM/SIGINT drains gracefully under -drain-timeout: stop
//     accepting (readyz flips to 503), finish in-flight jobs, journal
//     the rest as pending. A second signal exits immediately.
//
// Telemetry: /metrics serves the Prometheus text exposition, the
// daemon's one live metrics surface (a scraper keeps the history);
// every job runs under its own trace, retained in a bounded ring
// (-trace-ring records, 16 MiB) and served by /api/v1/jobs/{id}/trace;
// and /api/v1/events streams job transitions and sweep cell progress
// over SSE.
//
// Exit status: 0 clean drain, 1 hard error or forced exit.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("apexd: ")
	code, err := run()
	if err != nil {
		log.Print(err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	addr := flag.String("addr", "127.0.0.1:8728", "listen address")
	j := flag.Int("j", cliutil.DefaultWorkers(), "job-executor workers")
	queueDepth := flag.Int("queue-depth", 256, "max queued jobs before submissions get 429 + Retry-After")
	rate := flag.Float64("rate", 0, "per-client sustained submissions per second (0 = unlimited)")
	burst := flag.Int("burst", 10, "per-client submission burst on top of -rate")
	retries := flag.Int("retries", 2, "retry budget for retryably-failed jobs (-1 = no retries)")
	retryBackoff := flag.Duration("retry-backoff", 250*time.Millisecond, "base retry backoff (doubled per attempt, jittered)")
	jobTimeout := flag.Duration("job-timeout", 0, "deadline per job attempt (0 = none; a timeout consumes a retry)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
	journal := flag.String("journal", "", "crash-safe job journal path ('' = jobs are lost on restart)")
	cacheDir := flag.String("cache-dir", "", "persistent content-addressed result cache directory ('' = in-memory only)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "cache size budget; oldest entries pruned past it (0 = unbounded)")
	fast := flag.Bool("fast", false, "skip place-and-route in every evaluation")
	traceRing := flag.Int("trace-ring", 256, "per-job trace records retained (newest win; -1 disables trace capture)")
	var of obs.Flags
	of.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		return 1, errors.New("apexd takes no positional arguments")
	}

	workers, err := cliutil.Workers("-j", *j)
	if err != nil {
		return 1, err
	}
	if *queueDepth <= 0 {
		return 1, errors.New("-queue-depth must be at least 1")
	}
	if *retries == 0 && flagSet("retries") {
		// Explicit 0 means "no retries"; Config's 0 means "default".
		*retries = -1
	}

	of.ForceObs = true
	o, obsCleanup, err := of.Setup(os.Stderr)
	if err != nil {
		return 1, err
	}
	defer obsCleanup()

	srv, err := serve.New(serve.Config{
		Workers:       workers,
		QueueDepth:    *queueDepth,
		Rate:          *rate,
		Burst:         *burst,
		RetryBudget:   *retries,
		RetryBackoff:  *retryBackoff,
		JobTimeout:    *jobTimeout,
		JournalPath:   *journal,
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheMax,
		FastMode:      *fast,
		Obs:           o,
		TraceRingSize: *traceRing,
	})
	if err != nil {
		return 1, err
	}
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return 1, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	o.Logger.Info("apexd listening", "addr", ln.Addr().String(),
		"workers", workers, "journal", *journal, "cache", *cacheDir)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		o.Logger.Info("shutting down", "signal", sig.String(), "drain_timeout", drainTimeout.String())
	case err := <-httpDone:
		return 1, err
	}

	// Second signal: force exit without waiting for the drain.
	forced := make(chan struct{})
	go func() {
		<-sigc
		close(forced)
	}()

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(drainCtx) }()

	select {
	case err := <-drained:
		hs.Close()
		if err != nil {
			return 1, err
		}
		return 0, nil
	case <-forced:
		hs.Close()
		return 1, errors.New("forced exit before drain finished")
	}
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
