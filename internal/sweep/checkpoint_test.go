package sweep

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointBytesPinned pins the checkpoint file format: indented
// JSON, cells sorted by index. A resume reads
// checkpoints written by older binaries, so the bytes must not drift.
func TestCheckpointBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	a := CellResult{Cell: Cell{Index: 3, App: "harris", FabricW: 16, FabricH: 8, Seed: 2, K: 4},
		Variant: "swp_harris_s0_k4", NumPEs: 9, TotalArea: 1234.5, TotalEnergy: 0.25,
		RuntimeMS: 1e-3, PerfPerMM2: 81, Routability: 1}
	b := CellResult{Cell: Cell{Index: 1, App: "camera"}, Routability: 0.375, Predicted: true, Err: "boom"}
	if err := saveCheckpoint(path, "fp", map[int]CellResult{3: a}); err != nil {
		t.Fatal(err)
	}
	if err := saveCheckpoint(path, "fp", map[int]CellResult{1: b}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
 "fingerprint": "fp",
 "done": [
  {
   "index": 1,
   "app": "camera",
   "support": 0,
   "fabric_w": 0,
   "fabric_h": 0,
   "seed": 0,
   "k": 0,
   "variant": "",
   "num_pes": 0,
   "total_area_um2": 0,
   "total_energy_pj": 0,
   "runtime_ms": 0,
   "perf_per_mm2": 0,
   "routability": 0.375,
   "predicted": true,
   "error": "boom"
  },
  {
   "index": 3,
   "app": "harris",
   "support": 0,
   "fabric_w": 16,
   "fabric_h": 8,
   "seed": 2,
   "k": 4,
   "variant": "swp_harris_s0_k4",
   "num_pes": 9,
   "total_area_um2": 1234.5,
   "total_energy_pj": 0.25,
   "runtime_ms": 0.001,
   "perf_per_mm2": 81,
   "routability": 1
  }
 ]
}`
	if string(got) != want {
		t.Fatalf("checkpoint bytes changed:\n%s", got)
	}
}
