//go:build gates

package mining

import "testing"

// TestGateMineSpeedup is the parallel struct-of-arrays rewrite's gate:
// on the camera workload the miner must run at least 4x faster than the
// frozen serial reference miner. A timing ratio, so it is built only
// with the gates tag (`make gates`), never in the tier-1 suite.
func TestGateMineSpeedup(t *testing.T) {
	mine := testing.Benchmark(BenchmarkMineCamera)
	ref := testing.Benchmark(BenchmarkMineCameraReference)
	speedup := float64(ref.NsPerOp()) / float64(mine.NsPerOp())
	t.Logf("miner %d ns/op, reference %d ns/op: %.2fx", mine.NsPerOp(), ref.NsPerOp(), speedup)
	if speedup < 4 {
		t.Errorf("miner speedup vs frozen reference = %.2fx, want >= 4x", speedup)
	}
}
