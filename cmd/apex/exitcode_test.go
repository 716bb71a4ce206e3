package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// These are subprocess tests of the documented exit-status contract:
// 0 on success, 1 on interruption (SIGINT flushes the checkpoint and
// reports partial progress), 2 when the run completed but cells failed.
// They exercise the real binary end to end — signal handling, flag
// parsing, checkpoint flush — which in-process tests cannot.

// apexBin builds the apex binary once per test run.
var apexBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "apex-bin-*")
	if err != nil {
		panic(err)
	}
	apexBin = filepath.Join(dir, "apex")
	out, err := exec.Command("go", "build", "-o", apexBin, ".").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("build apex: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("run apex: %v", err)
	}
	return ee.ExitCode()
}

// slowGrid is a sweep invocation long enough (a few seconds serial)
// that SIGINT reliably lands mid-run once the first checkpoint flush
// has appeared, yet cheap enough to finish promptly on -resume.
func slowGrid(checkpoint string) []string {
	return []string{"sweep",
		"-apps", "camera,harris",
		"-ks", "1,2,3,4,5,6,7,8",
		"-seeds", "1,2,3,4,5,6,7,8",
		"-pnr", "-j", "1", "-quiet",
		"-checkpoint", checkpoint,
	}
}

func TestSweepExit2OnFailedCell(t *testing.T) {
	// A 1ns cell deadline makes every backend evaluation expire; the
	// sweep completes (the run itself is not interrupted) but reports
	// the failures, and the documented exit status for that is 2.
	cmd := exec.Command(apexBin, "sweep", "-apps", "gaussian", "-cell-timeout", "1ns", "-quiet")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if code := exitCode(t, cmd.Run()); code != 2 {
		t.Fatalf("exit = %d, want 2\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "failed") {
		t.Fatalf("output does not mention failed cells:\n%s", out.String())
	}
}

func TestSweepExit1OnInterruptThenExit0OnResume(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGINT delivery is unix-only")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")

	cmd := exec.Command(apexBin, slowGrid(ckpt)...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	// Interrupt as soon as the first checkpoint flush lands, so the
	// resumed run below provably starts from partial progress.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("checkpoint never appeared:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatalf("signal: %v", err)
	}
	code := exitCode(t, cmd.Wait())
	if code == 0 {
		// The run won the race and finished before the signal landed;
		// the machine is too fast for this grid. Surface it rather than
		// pass vacuously.
		t.Fatalf("sweep finished before SIGINT; grid too small to interrupt\n%s", out.String())
	}
	if code != 1 {
		t.Fatalf("interrupted exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "interrupted") {
		t.Fatalf("interrupted run did not report partial progress:\n%s", out.String())
	}

	// Same grid with -resume completes the remaining cells cleanly.
	resume := exec.Command(apexBin, append(slowGrid(ckpt), "-resume")...)
	var rout bytes.Buffer
	resume.Stdout, resume.Stderr = &rout, &rout
	if code := exitCode(t, resume.Run()); code != 0 {
		t.Fatalf("resume exit = %d, want 0\n%s", code, rout.String())
	}
	if !strings.Contains(rout.String(), "resumed") {
		t.Fatalf("resumed run did not report resumed cells:\n%s", rout.String())
	}
}

func TestSweepExit0Clean(t *testing.T) {
	cmd := exec.Command(apexBin, "sweep", "-apps", "gaussian", "-quiet")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if code := exitCode(t, cmd.Run()); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out.String())
	}
}

func TestWorkersFlagRejected(t *testing.T) {
	for _, args := range [][]string{
		{"sweep", "-apps", "gaussian", "-j", "0"},
		{"sweep", "-apps", "gaussian", "-j", "-4"},
		{"analyze", "-j", "1000000", "gaussian"},
	} {
		cmd := exec.Command(apexBin, args...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if code := exitCode(t, cmd.Run()); code != 1 {
			t.Errorf("apex %v exit = %d, want 1 (usage error)", args, code)
		}
		if !strings.Contains(out.String(), "-j") {
			t.Errorf("apex %v error does not name the flag:\n%s", args, out.String())
		}
	}
}

// TestCompileConstantOutput: a kernel whose only output ir.Optimize
// folds to a constant compiles and maps (exit 0), on the baseline and
// with subgraph merging requested.
func TestCompileConstantOutput(t *testing.T) {
	kern := filepath.Join(t.TempDir(), "constout.kern")
	if err := os.WriteFile(kern, []byte("input x0\nt0 = x0 - x0\nout y0 = t0 + 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"0", "2"} {
		cmd := exec.Command(apexBin, "compile", "-k", k, kern)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if code := exitCode(t, cmd.Run()); code != 0 {
			t.Fatalf("apex compile -k %s: exit = %d, want 0\n%s", k, code, out.String())
		}
		if !strings.Contains(out.String(), "mapped onto 0 PEs") {
			t.Errorf("apex compile -k %s output:\n%s", k, out.String())
		}
	}
}
