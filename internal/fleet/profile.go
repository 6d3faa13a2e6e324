package fleet

// This file defines the population profiles that rebuild the paper's
// studied fleet (Table 1): how many systems each class has, how they are
// shelved, which disk models and shelf models they combine (the Figure 5
// panel structure), their RAID layout, network redundancy mix, and the
// deployment schedule that yields the per-class disk exposure implied by
// the paper's event counts and AFRs.

// Disk model catalog. Family letters A–H are FC enterprise families,
// I–K are SATA near-line families, matching the paper's anonymization
// ("Disk A-2", "Disk H-1", ...). Capacity ordinals order capacity within
// a family.
var (
	DiskA1 = DiskModel{Family: "A", Capacity: 1, Type: FC}
	DiskA2 = DiskModel{Family: "A", Capacity: 2, Type: FC}
	DiskA3 = DiskModel{Family: "A", Capacity: 3, Type: FC}
	DiskB1 = DiskModel{Family: "B", Capacity: 1, Type: FC}
	DiskC1 = DiskModel{Family: "C", Capacity: 1, Type: FC}
	DiskC2 = DiskModel{Family: "C", Capacity: 2, Type: FC}
	DiskD1 = DiskModel{Family: "D", Capacity: 1, Type: FC}
	DiskD2 = DiskModel{Family: "D", Capacity: 2, Type: FC}
	DiskD3 = DiskModel{Family: "D", Capacity: 3, Type: FC}
	DiskE1 = DiskModel{Family: "E", Capacity: 1, Type: FC}
	DiskF1 = DiskModel{Family: "F", Capacity: 1, Type: FC}
	DiskF2 = DiskModel{Family: "F", Capacity: 2, Type: FC}
	DiskG1 = DiskModel{Family: "G", Capacity: 1, Type: FC}
	DiskH1 = DiskModel{Family: "H", Capacity: 1, Type: FC}
	DiskH2 = DiskModel{Family: "H", Capacity: 2, Type: FC}
	DiskI1 = DiskModel{Family: "I", Capacity: 1, Type: SATA}
	DiskI2 = DiskModel{Family: "I", Capacity: 2, Type: SATA}
	DiskJ1 = DiskModel{Family: "J", Capacity: 1, Type: SATA}
	DiskJ2 = DiskModel{Family: "J", Capacity: 2, Type: SATA}
	DiskK1 = DiskModel{Family: "K", Capacity: 1, Type: SATA}
)

// AllDiskModels lists the 20 disk models in the studied population.
var AllDiskModels = []DiskModel{
	DiskA1, DiskA2, DiskA3, DiskB1, DiskC1, DiskC2, DiskD1, DiskD2, DiskD3,
	DiskE1, DiskF1, DiskF2, DiskG1, DiskH1, DiskH2,
	DiskI1, DiskI2, DiskJ1, DiskJ2, DiskK1,
}

// ProblemFamily is the problematic disk family the paper calls "Disk H"
// and excludes in Figure 4(b).
const ProblemFamily = "H"

// Shelf enclosure model catalog.
const (
	ShelfA ShelfModel = "A"
	ShelfB ShelfModel = "B"
	ShelfC ShelfModel = "C"
)

// ShelfConfig is one (shelf model, disk model) combination a class
// deploys, with a selection weight. Each system draws one config, making
// systems homogeneous in shelf and disk model — the grouping unit of the
// paper's Figures 5 and 6.
type ShelfConfig struct {
	Shelf  ShelfModel
	Disk   DiskModel
	Weight float64
}

// ClassProfile describes how to build one system class's population.
type ClassProfile struct {
	Class SystemClass

	// NumSystems is the system count at scale 1.0 (Table 1).
	NumSystems int

	// ShelvesPerSystem is the mean shelf count per system; actual counts
	// are drawn in [1, 2*mean-1] to introduce realistic spread.
	ShelvesPerSystem float64

	// DisksPerShelf is the mean initial disk population per shelf
	// (capped at MaxDisksPerShelf).
	DisksPerShelf float64

	// RAIDGroupSize is the number of disks per RAID group.
	RAIDGroupSize int

	// RAID6Fraction is the fraction of RAID groups built as RAID6
	// (the remainder are RAID4).
	RAID6Fraction float64

	// DualPathFraction is the fraction of systems configured with two
	// independent interconnects (0 for classes without multipathing).
	DualPathFraction float64

	// InstallWindow gives the system deployment window as fractions of
	// the study duration: install times are uniform in
	// [Start*T, End*T]. The windows are calibrated so that per-class
	// disk exposure (disk-years per disk ever installed) matches what
	// the paper's event counts and AFRs jointly imply.
	InstallWindow struct{ Start, End float64 }

	// ChurnPerDiskYear is the rate of non-failure disk replacements
	// (capacity upgrades, proactive swaps). Churn splits slot residency
	// across multiple Disk records, reproducing the paper's
	// "# Disks ever installed > slots" accounting.
	ChurnPerDiskYear float64

	// SpanShelves is how many shelves a RAID group is striped across
	// (the paper: "a RAID group on average spans about 3 shelves").
	// 1 confines each group to a single shelf (the Finding 9 ablation).
	SpanShelves int

	// SparseShelfFraction is the fraction of shelves built at half the
	// class's mean disk population — a heterogeneous shelf-size mix.
	// Real fleets are not uniformly packed (expansion shelves start
	// sparse and fill over time), and shelf occupancy sets both the
	// per-shelf episode rate and how many victims a burst can claim, so
	// the sweep uses this dimension to probe the shelf-level burst and
	// correlation findings. Zero (the default) builds every shelf at the
	// profile mean and consumes no extra randomness, so default-profile
	// topologies are unchanged stream for stream.
	SparseShelfFraction float64

	// Configs are the deployable (shelf model, disk model) combinations.
	Configs []ShelfConfig
}

// SkewInstallWindow shifts the class's deployment window to stagger
// the fleet's age mix: skew in (0, 1] moves the window start toward
// its end (systems deploy late, so the study observes a young fleet
// with little exposure), skew in [-1, 0) moves the end toward the
// start (an old fleet, fully deployed early). The window width shrinks
// by |skew| either way — cohorts concentrate. Install times still cost
// exactly one uniform draw per system, so skewing never perturbs any
// other topology stream.
func (p *ClassProfile) SkewInstallWindow(skew float64) {
	if skew == 0 {
		return
	}
	if skew > 1 {
		skew = 1
	}
	if skew < -1 {
		skew = -1
	}
	width := p.InstallWindow.End - p.InstallWindow.Start
	if skew > 0 {
		p.InstallWindow.Start += skew * width
	} else {
		p.InstallWindow.End += skew * width
	}
}

// DefaultProfiles returns the four class profiles calibrated to the
// paper's Table 1 population and the exposure implied by its AFRs.
func DefaultProfiles() []ClassProfile {
	nl := ClassProfile{
		Class:            NearLine,
		NumSystems:       4927,
		ShelvesPerSystem: 6.84,
		DisksPerShelf:    14,
		RAIDGroupSize:    7,
		RAID6Fraction:    0.4,
		DualPathFraction: 0,
		ChurnPerDiskYear: 0.072,
		SpanShelves:      3,
		Configs: []ShelfConfig{
			{ShelfC, DiskI1, 0.26},
			{ShelfC, DiskJ1, 0.24},
			{ShelfC, DiskJ2, 0.18},
			{ShelfC, DiskK1, 0.17},
			{ShelfC, DiskI2, 0.15},
		},
	}
	nl.InstallWindow.Start, nl.InstallWindow.End = 0.385, 1.0

	low := ClassProfile{
		Class:            LowEnd,
		NumSystems:       22031,
		ShelvesPerSystem: 1.69,
		DisksPerShelf:    7.0,
		RAIDGroupSize:    6,
		RAID6Fraction:    0.4,
		DualPathFraction: 0,
		ChurnPerDiskYear: 0.02,
		SpanShelves:      3,
		Configs: []ShelfConfig{
			{ShelfA, DiskA2, 0.13}, {ShelfA, DiskA3, 0.12}, {ShelfA, DiskD2, 0.12},
			{ShelfA, DiskD3, 0.10}, {ShelfA, DiskH2, 0.05},
			{ShelfB, DiskA2, 0.13}, {ShelfB, DiskA3, 0.12}, {ShelfB, DiskD2, 0.12},
			{ShelfB, DiskD3, 0.10}, {ShelfB, DiskH2, 0.11},
		},
	}
	low.InstallWindow.Start, low.InstallWindow.End = 0.26, 1.0

	mid := ClassProfile{
		Class:            MidRange,
		NumSystems:       7154,
		ShelvesPerSystem: 7.36,
		DisksPerShelf:    10.6,
		RAIDGroupSize:    7,
		RAID6Fraction:    0.4,
		DualPathFraction: 1.0 / 3.0,
		ChurnPerDiskYear: 0.02,
		SpanShelves:      3,
		Configs: []ShelfConfig{
			{ShelfC, DiskB1, 0.08}, {ShelfC, DiskC1, 0.07}, {ShelfC, DiskG1, 0.06},
			{ShelfC, DiskH1, 0.05},
			{ShelfB, DiskA1, 0.08}, {ShelfB, DiskA2, 0.10}, {ShelfB, DiskC1, 0.08},
			{ShelfB, DiskC2, 0.08}, {ShelfB, DiskD1, 0.08}, {ShelfB, DiskD2, 0.10},
			{ShelfB, DiskD3, 0.08}, {ShelfB, DiskE1, 0.06}, {ShelfB, DiskH1, 0.04},
			{ShelfB, DiskH2, 0.04},
		},
	}
	mid.InstallWindow.Start, mid.InstallWindow.End = 0.0, 1.0

	high := ClassProfile{
		Class:            HighEnd,
		NumSystems:       5003,
		ShelvesPerSystem: 6.68,
		DisksPerShelf:    13.2,
		RAIDGroupSize:    9,
		RAID6Fraction:    0.4,
		DualPathFraction: 1.0 / 3.0,
		ChurnPerDiskYear: 0.02,
		SpanShelves:      3,
		Configs: []ShelfConfig{
			{ShelfB, DiskA2, 0.12}, {ShelfB, DiskA3, 0.11}, {ShelfB, DiskC2, 0.10},
			{ShelfB, DiskD2, 0.12}, {ShelfB, DiskD3, 0.11}, {ShelfB, DiskE1, 0.09},
			{ShelfB, DiskF1, 0.09}, {ShelfB, DiskF2, 0.08}, {ShelfB, DiskH1, 0.09},
			{ShelfB, DiskH2, 0.09},
		},
	}
	high.InstallWindow.Start, high.InstallWindow.End = 0.0, 0.9

	return []ClassProfile{nl, low, mid, high}
}
