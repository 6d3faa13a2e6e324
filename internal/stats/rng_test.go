package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give the same stream")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(42)
	a := root.Split(1)
	b := root.Split(2)
	a2 := NewRNG(42).Split(1)
	// Same stream index: identical stream. Different index: different
	// stream.
	sameCount, diffCount := 0, 0
	for i := 0; i < 50; i++ {
		x, y, z := a.Float64(), b.Float64(), a2.Float64()
		if x == z {
			sameCount++
		}
		if x != y {
			diffCount++
		}
	}
	if sameCount != 50 {
		t.Error("Split with the same stream index must reproduce the stream")
	}
	if diffCount < 49 {
		t.Error("Split with different stream indices should decorrelate")
	}
}

func TestRNGSplitDoesNotPerturbParent(t *testing.T) {
	a := NewRNG(7)
	_ = a.Split(3)
	b := NewRNG(7)
	_ = b.Split(4)
	if a.Float64() != b.Float64() {
		t.Error("Split must not consume parent stream state")
	}
}

func TestRNGSplitPositionIndependent(t *testing.T) {
	// The decoupled-streams property: a child depends only on the
	// parent's identity and the stream index, never on how many draws
	// the parent has made. Inserting a component (splitting new indices)
	// therefore never perturbs sibling streams.
	a := NewRNG(11)
	before := a.Split(5)
	for i := 0; i < 100; i++ {
		a.Float64()
	}
	_ = a.Split(99) // a "new component" split
	after := a.Split(5)
	for i := 0; i < 50; i++ {
		if before.Float64() != after.Float64() {
			t.Fatal("Split must be a pure function of (parent identity, stream)")
		}
	}
}

func TestRNGSplitChildrenDecorrelate(t *testing.T) {
	// Children across many adjacent stream indices (the simulator splits
	// by dense component IDs) must not share draws.
	root := NewRNG(1)
	seen := make(map[uint64]uint64)
	for s := uint64(0); s < 2000; s++ {
		c := root.Split(s)
		v := c.Uint64()
		if prev, ok := seen[v]; ok {
			t.Fatalf("streams %d and %d collide on first draw", prev, s)
		}
		seen[v] = s
	}
}

func TestRNGSplitAndDrawsAllocFree(t *testing.T) {
	// The simulation hot path splits per shelf, per slot, and per
	// process; none of it may allocate.
	r := NewRNG(42)
	var sink float64
	if n := testing.AllocsPerRun(1000, func() {
		child := r.Split(7)
		grand := child.Split(9)
		sink += grand.Float64()
		sink += grand.Exponential(2)
		sink += grand.Gamma(0.5, 1)
		sink += grand.LogNormal(0, 1)
		sink += float64(grand.Poisson(3))
		sink += float64(grand.Intn(14))
		if grand.Bernoulli(0.5) {
			sink++
		}
	}); n != 0 {
		t.Fatalf("Split + sampler round allocated %v times per run, want 0", n)
	}
	_ = sink
}

func TestRNGUniformity(t *testing.T) {
	// Coarse chi-square sanity check on Float64 bins.
	r := NewRNG(99)
	const bins, n = 20, 200000
	counts := make([]int, bins)
	for i := 0; i < n; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64() = %g outside [0,1)", u)
		}
		counts[int(u*bins)]++
	}
	expected := float64(n) / bins
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 19 degrees of freedom: 99.9th percentile is ~43.8.
	if chi2 > 43.8 {
		t.Errorf("Float64 bin chi-square %.1f, want < 43.8", chi2)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(8)
	for _, n := range []int{1, 2, 3, 7, 14, 1 << 20} {
		for i := 0; i < 1000; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
	counts := make([]int, 5)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(5)]++
	}
	for i, c := range counts {
		if got := float64(c) / n; math.Abs(got-0.2) > 0.01 {
			t.Errorf("Intn(5) bucket %d frequency %g, want 0.2", i, got)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Intn(0) must panic")
			}
		}()
		r.Intn(0)
	}()
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(31)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal(3, 2)
		sum += x
		sum2 += x * x
	}
	m := sum / n
	v := sum2/n - m*m
	if math.Abs(m-3) > 0.03 {
		t.Errorf("Normal(3,2) mean %g", m)
	}
	if math.Abs(v-4) > 0.08 {
		t.Errorf("Normal(3,2) variance %g", v)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(1)
	if r.Bernoulli(0) {
		t.Error("p=0 must be false")
	}
	if !r.Bernoulli(1) {
		t.Error("p=1 must be true")
	}
	count := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			count++
		}
	}
	if rate := float64(count) / n; math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate %g", rate)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := NewRNG(2)
	for _, mean := range []float64{0.1, 1, 5, 29, 50, 200} {
		const n = 50000
		sum, sum2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := float64(r.Poisson(mean))
			sum += x
			sum2 += x * x
		}
		m := sum / n
		v := sum2/n - m*m
		if math.Abs(m-mean)/mean > 0.05 {
			t.Errorf("Poisson(%g): mean %g", mean, m)
		}
		if math.Abs(v-mean)/mean > 0.1 {
			t.Errorf("Poisson(%g): variance %g", mean, v)
		}
	}
	if r.Poisson(0) != 0 {
		t.Error("Poisson(0) must be 0")
	}
}

func TestCategoricalWeights(t *testing.T) {
	r := NewRNG(4)
	weights := []float64{1, 2, 7}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d: %g, want %g", i, got, want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	r := NewRNG(5)
	for _, weights := range [][]float64{{0, 0}, {-1, 2}, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weights %v: expected panic", weights)
				}
			}()
			r.Categorical(weights)
		}()
	}
}

func TestSamplerPanics(t *testing.T) {
	r := NewRNG(6)
	cases := []func(){
		func() { r.Exponential(0) },
		func() { r.Gamma(0, 1) },
		func() { r.Poisson(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: Gamma sampler stays positive and finite for a range of
// shapes including the boost branch (shape < 1).
func TestQuickGammaSamplerPositive(t *testing.T) {
	r := NewRNG(7)
	f := func(shapeSeed, scaleSeed uint8) bool {
		shape := 0.05 + float64(shapeSeed)/32
		scale := 0.1 + float64(scaleSeed)/64
		x := r.Gamma(shape, scale)
		return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestKeyMatchesRNG pins the key-only streams to the generators they
// stand for, over random keys and stream indices: NewKey is NewRNG's
// identity, Key.Split(s).RNG() is RNG.Split(s), and FirstFloat64 is
// the expanded generator's first Float64.
func TestKeyMatchesRNG(t *testing.T) {
	src := NewRNG(7)
	var g uint64 = golden64
	keys := []Key{0, Key(-g), ^Key(0)} // Key(-g) makes Key.RNG's s0 = mix64(0) = 0
	for range 2000 {
		keys = append(keys, Key(src.Uint64()))
	}
	for i, k := range keys {
		seed := int64(src.Uint64())
		if got, want := NewKey(seed).RNG(), *NewRNG(seed); got != want {
			t.Fatalf("NewKey(%d).RNG() = %+v, want NewRNG's %+v", seed, got, want)
		}
		stream := src.Uint64()
		if i%2 == 0 {
			stream = stream&0xff | uint64(i)<<8 // a packed (stream, index) identity
		}
		parent := k.RNG()
		child := k.Split(stream).RNG()
		if want := parent.Split(stream); child != want {
			t.Fatalf("Key(%#x).Split(%#x).RNG() = %+v, want RNG.Split's %+v", uint64(k), stream, child, want)
		}
		for _, r := range []RNG{parent, child} {
			u, ok := r.key.FirstFloat64()
			if !ok {
				t.Fatalf("Key(%#x).FirstFloat64 reports both state words zero", uint64(r.key))
			}
			if want := r.Float64(); u != want {
				t.Fatalf("Key(%#x).FirstFloat64() = %v, want the generator's first draw %v", uint64(r.key), u, want)
			}
		}
	}
}
