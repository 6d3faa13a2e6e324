package sweep

import (
	"math"
	"testing"
)

// TestFindingsVectorGolden pins, bit for bit, the trial-0 metric vector
// of every smoke-grid scenario with Findings set: the findings_pass
// count and every effect-size metric that shares its computation with
// the Findings verdicts. The analysis layer may be restructured freely
// as long as these bits hold; a deliberate change to any metric must
// re-derive them.
func TestFindingsVectorGolden(t *testing.T) {
	want := map[string][]uint64{
		"baseline": {
			0x40c0548000000000, // events_visible
			0x3fa05ea60714f781, // afr_total_nearline
			0x3fa53b9b6775fa8a, // afr_total_lowend
			0x3f9bb54738eae548, // afr_total_midrange
			0x3f9b5cfc9cb9005a, // afr_total_highend
			0x3fe2dc81a101e2da, // disk_share_nearline
			0x3fc61e4f765fd8ae, // disk_share_lowend
			0x3fd07d768b4d07d7, // disk_share_midrange
			0x3fd04f9eafd3c449, // disk_share_highend
			0x3fcfe490b7cffd42, // pi_share_nearline
			0x3fe2a305532617c2, // pi_share_lowend
			0x3fe2a6fa00ec2a70, // pi_share_midrange
			0x3fe3b703ded336bd, // pi_share_highend
			0x3f934c14d2ade47f, // disk_afr_nearline
			0x3f7d5a2ee50a501b, // disk_afr_lowend
			0x3ff9aec74b7df0ef, // family_h_afr_ratio
			0x3fd3d302c23ef4e5, // burst_shelf_overall
			0x3fc61b7eb316aa2c, // burst_rg_overall
			0x3f746dce34596066, // burst_shelf_disk
			0x3fe0e87cb297a51e, // burst_shelf_pi
			0x40178233afe98c12, // corr_disk_shelf
			0x4026b6d22b99824b, // corr_pi_shelf
			0x4020000000000000, // findings_pass
			0x7ff8000000000001, // mined_dropped
			0x3fc360c428314a72, // afr_spread_disk
			0x3fc8c7d43a69b468, // afr_spread_subsys
			0x3ff05b117717ce50, // afr_capacity_ratio
			0x3fc97e5d4b9160c1, // shelf_model_pi_delta
			0x3fd5d53e42b0141c, // multipath_total_reduction
			0x3fe298757d166422, // multipath_pi_reduction
		},
		"disk-afr-x2": {
			0x40c59e8000000000, // events_visible
			0x3faa5f3b7a605d21, // afr_total_nearline
			0x3fa8bba1b0f8e760, // afr_total_lowend
			0x3fa17c9b92438ebd, // afr_total_midrange
			0x3fa15a97630e8f88, // afr_total_highend
			0x3fe7db6209277db6, // disk_share_nearline
			0x3fd28ca8ca8ca8cb, // disk_share_lowend
			0x3fda619375dbd1f4, // disk_share_midrange
			0x3fda66a95bdf4e24, // disk_share_highend
			0x3fc3bedb10493bee, // pi_share_nearline
			0x3fe0000000000000, // pi_share_lowend
			0x3fdd887f2d7fb9d5, // pi_share_midrange
			0x3fdf1657676ca7d5, // pi_share_highend
			0x3fa3a93f4a344199, // disk_afr_nearline
			0x3f8cac8499209078, // disk_afr_lowend
			0x3ffb86e0ce51f8fa, // family_h_afr_ratio
			0x3fcaf756288e6c57, // burst_shelf_overall
			0x3fbc8a958661d559, // burst_rg_overall
			0x3f7eeb89c6b4f92e, // burst_shelf_disk
			0x3fe0e8ba2e8ba2e9, // burst_shelf_pi
			0x400df3b738ab843a, // corr_disk_shelf
			0x4026b6d22b99824b, // corr_pi_shelf
			0x4018000000000000, // findings_pass
			0x7ff8000000000001, // mined_dropped
			0x3fc22cc07a67372c, // afr_spread_disk
			0x3fc4e6214caf8dfe, // afr_spread_subsys
			0x3fefcf8939f4791e, // afr_capacity_ratio
			0x3fc97ebadd4dc21b, // shelf_model_pi_delta
			0x3fcfd471905d8aea, // multipath_total_reduction
			0x3fe296e2c4c2afe4, // multipath_pi_reduction
		},
	}
	cfg := Config{Trials: 1, Seed: 42, Scale: 0.1, Workers: 1, Scenarios: grid("smoke"), Findings: true}
	res := execute(t, cfg)
	for _, sc := range res.Scenarios {
		bits, ok := want[sc.Scenario.Name]
		if !ok {
			t.Fatalf("unexpected scenario %q", sc.Scenario.Name)
		}
		if len(bits) != len(sc.Metrics) {
			t.Errorf("%s: %d pinned values for %d metrics", sc.Scenario.Name, len(bits), len(sc.Metrics))
		}
		for mi, m := range sc.Metrics {
			got := math.Float64bits(float64(m.Point))
			if mi >= len(bits) || got != bits[mi] {
				t.Errorf("%s %s: point bits %#016x (%v)", sc.Scenario.Name, Metrics[mi].Name, got, float64(m.Point))
			}
		}
	}
}

// TestMinedVectorGolden pins, bit for bit, the trial-0 metric vector of
// a scenario whose events are mined back out of the collected support
// logs (Scenario.Mine), the one path TestFindingsVectorGolden leaves
// cold: mined_dropped is NaN in every smoke-grid scenario. Recorded
// before log messages stopped carrying their text, so any change to it
// is a changed mining result, not a refactor.
func TestMinedVectorGolden(t *testing.T) {
	want := []uint64{
		0x40c0548000000000, // events_visible
		0x3fa05ea60714f781, // afr_total_nearline
		0x3fa53b9b6775fa8a, // afr_total_lowend
		0x3f9bb54738eae548, // afr_total_midrange
		0x3f9b5cfc9cb9005a, // afr_total_highend
		0x3fe2dc81a101e2da, // disk_share_nearline
		0x3fc61e4f765fd8ae, // disk_share_lowend
		0x3fd07d768b4d07d7, // disk_share_midrange
		0x3fd04f9eafd3c449, // disk_share_highend
		0x3fcfe490b7cffd42, // pi_share_nearline
		0x3fe2a305532617c2, // pi_share_lowend
		0x3fe2a6fa00ec2a70, // pi_share_midrange
		0x3fe3b703ded336bd, // pi_share_highend
		0x3f934c14d2ade47f, // disk_afr_nearline
		0x3f7d5a2ee50a501b, // disk_afr_lowend
		0x3ff9aec74b7df0ef, // family_h_afr_ratio
		0x3fd3ce28c75ce28c, // burst_shelf_overall
		0x3fc618c21abd271e, // burst_rg_overall
		0x3f746dce34596066, // burst_shelf_disk
		0x3fe0e6bb1263c106, // burst_shelf_pi
		0x40178233afe98c12, // corr_disk_shelf
		0x4026b6d22b99824b, // corr_pi_shelf
		0x4020000000000000, // findings_pass
		0x0000000000000000, // mined_dropped
		0x3fc360c428314a72, // afr_spread_disk
		0x3fc8c7d43a69b468, // afr_spread_subsys
		0x3ff05b117717ce50, // afr_capacity_ratio
		0x3fc97e5d4b9160c1, // shelf_model_pi_delta
		0x3fd5d53e42b0141c, // multipath_total_reduction
		0x3fe298757d166422, // multipath_pi_reduction
	}
	cfg := Config{Trials: 1, Seed: 42, Scale: 0.1, Workers: 1, Findings: true,
		Scenarios: []Scenario{{Name: "mined", Mine: true}}}
	res := execute(t, cfg)
	ms := res.Scenarios[0].Metrics
	if len(want) != len(ms) {
		t.Errorf("%d pinned values for %d metrics", len(want), len(ms))
	}
	for mi, m := range ms {
		got := math.Float64bits(float64(m.Point))
		if mi >= len(want) || got != want[mi] {
			t.Errorf("%s: point bits %#016x (%v)", Metrics[mi].Name, got, float64(m.Point))
		}
	}
}
