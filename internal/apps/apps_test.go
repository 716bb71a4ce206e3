package apps

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
)

// Paper Table 3 baseline footprints: compute ops (= baseline PEs, one op
// per PE), memory tiles, and I/O tiles.
var paperFootprint = map[string]struct{ pe, mem, io int }{
	"camera":    {232, 39, 28},
	"harris":    {192, 17, 10},
	"unsharp":   {303, 39, 27},
	"gaussian":  {140, 14, 42},
	"resnet":    {132, 24, 11},
	"mobilenet": {112, 52, 17},
}

func TestAllGraphsValid(t *testing.T) {
	for _, a := range All() {
		if err := a.Graph.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestFootprintsMatchPaper(t *testing.T) {
	for _, a := range All() {
		want, ok := paperFootprint[a.Name]
		t.Logf("%-10s compute=%d mem=%d io=%d", a.Name, a.ComputeOps(), a.MemNodes(), a.IONodes())
		if !ok {
			continue // unseen apps have no Table 3 row
		}
		if got := a.ComputeOps(); got != want.pe {
			t.Errorf("%s: compute ops = %d, paper baseline #PE = %d", a.Name, got, want.pe)
		}
		if got := a.MemNodes(); got != want.mem {
			t.Errorf("%s: mem nodes = %d, paper #MEM = %d", a.Name, got, want.mem)
		}
		if got := a.IONodes(); got != want.io {
			t.Errorf("%s: IO nodes = %d, paper #IO = %d", a.Name, got, want.io)
		}
	}
}

func TestCameraOpRestrictions(t *testing.T) {
	// The paper: camera uses all baseline ops except left shift and
	// bitwise logical operations.
	a := Camera()
	for _, op := range a.UsedOps() {
		if op == ir.OpShl {
			t.Error("camera must not use left shift")
		}
		if op == ir.OpAnd || op == ir.OpOr || op == ir.OpXor || op == ir.OpNot {
			t.Errorf("camera must not use bitwise logic, found %s", op)
		}
	}
}

func TestCameraPrimitiveOpsPerPixel(t *testing.T) {
	// The paper: camera needs ~90 primitive operations per output pixel
	// (compute + constant leaves), unrolled 4x.
	a := Camera()
	counts := a.Graph.CountOps()
	primitive := a.ComputeOps() + counts[ir.OpConst] + counts[ir.OpConstB]
	perPixel := primitive / a.Unroll
	if perPixel < 80 || perPixel > 100 {
		t.Errorf("camera primitives per pixel = %d, paper reports ~90", perPixel)
	}
}

func TestByNameAndRegistry(t *testing.T) {
	if _, err := ByName("camera"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("expected error for unknown app")
	}
	if len(Names()) != 9 {
		t.Errorf("registry size = %d, want 9", len(Names()))
	}
	if len(AnalyzedIP()) != 4 || len(AnalyzedML()) != 2 || len(UnseenIP()) != 3 {
		t.Error("analysis partitions wrong")
	}
}

func TestSeenFlags(t *testing.T) {
	for _, a := range AnalyzedIP() {
		if !a.Seen {
			t.Errorf("%s should be Seen", a.Name)
		}
	}
	for _, a := range UnseenIP() {
		if a.Seen {
			t.Errorf("%s should be unseen", a.Name)
		}
	}
}

// TestGraphsDeterministic: building an application afresh yields the
// same graph as the shared instance every constructor returns.
func TestGraphsDeterministic(t *testing.T) {
	builders := map[string]func() *App{
		"camera": buildCamera, "harris": buildHarris, "gaussian": buildGaussian,
		"unsharp": buildUnsharp, "resnet": buildResNet, "mobilenet": buildMobileNet,
		"laplacian": buildLaplacian, "stereo": buildStereo, "fast": buildFASTCorner,
	}
	for _, name := range Names() {
		a1, _ := ByName(name)
		a2 := builders[name]()
		if a1 == a2 {
			t.Fatalf("%s: fresh build returned the shared app", name)
		}
		if a1.Graph.NumNodes() != a2.Graph.NumNodes() {
			t.Errorf("%s: nondeterministic node count", name)
		}
		l1, _ := a1.Graph.ToLabeled()
		l2, _ := a2.Graph.ToLabeled()
		if l1.String() != l2.String() {
			t.Errorf("%s: nondeterministic structure", name)
		}
	}
}

func TestAllAppsEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, a := range All() {
		inputs := map[string]uint16{}
		for _, in := range a.Graph.Inputs() {
			n := a.Graph.Nodes[in]
			inputs[n.Name] = uint16(rng.Intn(256))
		}
		outs, err := a.Graph.Eval(inputs)
		if err != nil {
			t.Errorf("%s: eval failed: %v", a.Name, err)
			continue
		}
		if len(outs) == 0 {
			t.Errorf("%s: no outputs", a.Name)
		}
	}
}

func TestGaussianBlursCorrectly(t *testing.T) {
	// On a constant image, a normalized blur returns the same constant.
	a := Gaussian()
	inputs := map[string]uint16{}
	for _, in := range a.Graph.Inputs() {
		inputs[a.Graph.Nodes[in].Name] = 100
	}
	outs, err := a.Graph.Eval(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 10; u++ {
		name := "out0"
		if u > 0 {
			name = string(rune('o'))
		}
		_ = name
	}
	if outs["out0"] != 100 {
		t.Errorf("blur of constant 100 = %d, want 100", outs["out0"])
	}
}

func TestHarrisFlatImageNoCorners(t *testing.T) {
	a := Harris()
	inputs := map[string]uint16{"thresh": 10}
	for _, in := range a.Graph.Inputs() {
		n := a.Graph.Nodes[in]
		if n.Name != "thresh" {
			inputs[n.Name] = 128
		}
	}
	outs, err := a.Graph.Eval(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 4; u++ {
		if outs["corner0"] != 0 {
			t.Errorf("flat image produced corner%d = %d", u, outs["corner0"])
		}
	}
}

func TestResNetReLUNonNegative(t *testing.T) {
	a := ResNet()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		inputs := map[string]uint16{}
		for _, in := range a.Graph.Inputs() {
			inputs[a.Graph.Nodes[in].Name] = uint16(rng.Intn(64))
		}
		outs, err := a.Graph.Eval(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for oc := 0; oc < 4; oc++ {
			name := []string{"ofmap0", "ofmap1", "ofmap2", "ofmap3"}[oc]
			if v := int16(outs[name]); v < 0 || v > 255 {
				t.Errorf("%s = %d outside [0,255]", name, v)
			}
		}
	}
}

func TestFASTUniformImageNoCorners(t *testing.T) {
	a := FASTCorner()
	inputs := map[string]uint16{"thresh": 20}
	for _, in := range a.Graph.Inputs() {
		n := a.Graph.Nodes[in]
		if n.Name != "thresh" {
			inputs[n.Name] = 77
		}
	}
	outs, err := a.Graph.Eval(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if outs["corner0"] != 0 || outs["corner1"] != 0 {
		t.Errorf("uniform image flagged corners: %v %v", outs["corner0"], outs["corner1"])
	}
}

func TestStereoZeroDisparityOnIdenticalImages(t *testing.T) {
	// When left and right images are identical and constant, disparity 0
	// has zero cost and must win.
	a := Stereo()
	inputs := map[string]uint16{}
	for _, in := range a.Graph.Inputs() {
		inputs[a.Graph.Nodes[in].Name] = 90
	}
	outs, err := a.Graph.Eval(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if outs["disp0"] != 0 || outs["disp1"] != 0 {
		t.Errorf("identical images: disparities %d,%d, want 0,0", outs["disp0"], outs["disp1"])
	}
}

func TestUnsharpIdentityOnFlatImage(t *testing.T) {
	// A flat image has no edges: coring zeroes the edge signal, so the
	// output equals the clamped input channels.
	a := Unsharp()
	inputs := map[string]uint16{"amount": 8}
	for _, in := range a.Graph.Inputs() {
		n := a.Graph.Nodes[in]
		if n.Name != "amount" {
			inputs[n.Name] = 60
		}
	}
	outs, err := a.Graph.Eval(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"out0_r", "out0_g", "out0_b"} {
		if outs[name] != 60 {
			t.Errorf("%s = %d, want 60 (flat image unchanged)", name, outs[name])
		}
	}
}

func TestUsedOpsSubsetsOfBaseline(t *testing.T) {
	baseline := map[ir.Op]bool{}
	for _, op := range ir.BaselineALUOps() {
		baseline[op] = true
	}
	for _, a := range All() {
		for _, op := range a.UsedOps() {
			if !baseline[op] {
				t.Errorf("%s uses %s, not in the baseline PE op set", a.Name, op)
			}
		}
	}
}
