package core

import (
	"sort"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/stats"
)

// Breakdown is one group's annualized failure rates split by failure
// type — one bar of the paper's stacked-bar figures.
type Breakdown struct {
	// Label identifies the group ("Near-line", "Disk A-2", "Dual Paths", ...).
	Label string
	// Systems, Shelves, Disks and Groups are population counts for the
	// group; Disks counts disks ever installed (the Table 1 convention).
	Systems, Shelves, Disks, Groups int
	// DiskYears is the exact exposure: the sum of per-disk residency.
	DiskYears float64
	// Events counts filtered failure events per type.
	Events [failmodel.NumTypes]int
	// AFR is Events/DiskYears per type (a fraction per disk-year; multiply
	// by 100 for the percentages the paper plots).
	AFR [failmodel.NumTypes]float64
}

// TotalEvents sums events across failure types.
func (b Breakdown) TotalEvents() int {
	total := 0
	for _, n := range b.Events {
		total += n
	}
	return total
}

// TotalAFR sums the per-type AFRs — the full bar height in Figure 4.
func (b Breakdown) TotalAFR() float64 {
	total := 0.0
	for _, afr := range b.AFR {
		total += afr
	}
	return total
}

// Share returns failure type t's fraction of the group's failures.
func (b Breakdown) Share(t failmodel.FailureType) float64 {
	total := b.TotalEvents()
	if total == 0 {
		return 0
	}
	return float64(b.Events[t]) / float64(total)
}

// CI returns a confidence interval for the group's AFR of type t at the
// given level (e.g. 0.995), using the Poisson-rate normal approximation
// — the error bars of Figures 6 and 7.
func (b Breakdown) CI(t failmodel.FailureType, level float64) stats.Interval {
	return stats.PoissonRateCI(b.Events[t], b.DiskYears, level)
}

// GroupKey assigns a system to a named group, or reports false to leave
// it out of the analysis.
type GroupKey func(*fleet.System) (string, bool)

// AFRByGroup computes per-group AFR breakdowns under the filter. Groups
// are returned sorted by label; group membership, exposure and event
// attribution are all by owning system. key is called once per admitted
// system, in system order.
func (ds *Dataset) AFRByGroup(key GroupKey, fl Filter) []Breakdown {
	index := make(map[string]int)
	var labels []string
	groupOf := make([]int, len(ds.Fleet.Systems))
	for i := range ds.Fleet.Systems {
		s := &ds.Fleet.Systems[i]
		groupOf[s.ID] = -1
		if !fl.admitsSystem(s) {
			continue
		}
		label, ok := key(s)
		if !ok {
			continue
		}
		i, seen := index[label]
		if !seen {
			i = len(labels)
			index[label] = i
			labels = append(labels, label)
		}
		groupOf[s.ID] = i
	}
	bs := ds.tally(labels, func(s *fleet.System) int { return groupOf[s.ID] }, fl)
	// Labels are unique, so the sort is a total order: the output order
	// is part of the byte-determinism contract.
	sort.Slice(bs, func(i, j int) bool { return bs[i].Label < bs[j].Label })
	return bs
}

// tally is the one aggregation behind every breakdown: key maps each
// admitted system to its group's index in labels, or -1 to leave it
// out; a group no system maps to keeps Systems == 0 and zero rates. Each
// group's exposure is summed in disk order whatever shares the pass.
func (ds *Dataset) tally(labels []string, key func(*fleet.System) int, fl Filter) []Breakdown {
	bs := make([]Breakdown, len(labels))
	groupOf := make([]int, len(ds.Fleet.Systems))
	for i := range ds.Fleet.Systems {
		s := &ds.Fleet.Systems[i]
		g := -1
		if fl.admitsSystem(s) {
			g = key(s)
		}
		groupOf[s.ID] = g
		if g < 0 {
			continue
		}
		b := &bs[g]
		b.Systems++
		b.Shelves += s.Shelves.Len()
		b.Groups += s.RAIDGroups.Len()
	}

	exp := make([]fleet.Exposure, len(bs))
	ds.Fleet.AddExposure(groupOf, exp)
	for i, e := range exp {
		bs[i].Disks, bs[i].DiskYears = e.Disks, e.Years
	}

	for _, e := range ds.Events {
		if g := groupOf[e.System]; g >= 0 && e.Visible() {
			bs[g].Events[e.Type]++
		}
	}

	for i := range bs {
		b := &bs[i]
		b.Label = labels[i]
		if b.DiskYears > 0 {
			for t, n := range b.Events {
				b.AFR[t] = float64(n) / b.DiskYears
			}
		}
	}
	return bs
}

// AFRByClass computes the Figure 4 breakdown: one bar per system class.
// Bars come back in class order, not alphabetical.
func (ds *Dataset) AFRByClass(fl Filter) []Breakdown {
	out := make([]Breakdown, 0, len(fleet.Classes))
	for _, b := range ds.classBreakdowns(fl) {
		if b.Systems > 0 {
			out = append(out, b)
		}
	}
	return out
}

// classBreakdowns is AFRByClass indexed by SystemClass: one entry per
// fleet.Classes position, with Systems == 0 for a class the filter
// leaves empty.
func (ds *Dataset) classBreakdowns(fl Filter) []Breakdown {
	labels := make([]string, len(fleet.Classes))
	for _, c := range fleet.Classes {
		labels[c] = c.String()
	}
	return ds.tally(labels, func(s *fleet.System) int { return int(s.Class) }, fl)
}

// AFRByDiskModel computes one Figure 5 panel: AFR per disk model for
// systems of the given class using the given shelf model, sorted by
// model name.
func (ds *Dataset) AFRByDiskModel(class fleet.SystemClass, shelf fleet.ShelfModel, fl Filter) []Breakdown {
	return ds.AFRByGroup(func(s *fleet.System) (string, bool) {
		if s.Class != class || s.ShelfModel != shelf {
			return "", false
		}
		return "Disk " + s.DiskModel.String(), true
	}, fl)
}

// AFRByPathConfig computes one Figure 7 panel: AFR for single-path vs
// dual-path subsystems of the given class. The single-path group sorts
// first, matching the paper's bar order.
func (ds *Dataset) AFRByPathConfig(class fleet.SystemClass, fl Filter) []Breakdown {
	bs := ds.AFRByGroup(func(s *fleet.System) (string, bool) {
		if s.Class != class {
			return "", false
		}
		if s.Paths == fleet.DualPath {
			return "Dual Paths", true
		}
		return "Single Path", true
	}, fl)
	sort.Slice(bs, func(i, j int) bool { return bs[i].Label > bs[j].Label }) // "Single Path" > "Dual Paths"
	return bs
}

// CompareAFR tests whether two groups' AFRs for failure type t differ,
// using the Poisson rate test — the significance machinery behind
// Figures 6 and 7 ("significant at the 99.5% confidence interval").
func CompareAFR(a, b Breakdown, t failmodel.FailureType) stats.TTestResult {
	return stats.PoissonRateTest(a.Events[t], a.DiskYears, b.Events[t], b.DiskYears)
}

// Table1Row is one row of the paper's Table 1 overview.
type Table1Row struct {
	Class        fleet.SystemClass
	Systems      int
	Shelves      int
	Disks        int
	DiskType     string
	RAIDGroups   int
	Multipathing string
	Events       [failmodel.NumTypes]int
}

// Table1 regenerates the paper's Table 1: per-class population and
// failure event counts (visible failures only, as the paper counts).
func (ds *Dataset) Table1() []Table1Row {
	rows := make([]Table1Row, len(fleet.Classes))
	for c, b := range ds.classBreakdowns(Filter{}) {
		rows[c] = Table1Row{Class: fleet.SystemClass(c), Systems: b.Systems, Shelves: b.Shelves,
			Disks: b.Disks, RAIDGroups: b.Groups, Events: b.Events}
	}
	for i := range ds.Fleet.Systems {
		s := &ds.Fleet.Systems[i]
		row := &rows[s.Class]
		if s.DiskModel.Type == fleet.SATA {
			row.DiskType = "SATA"
		} else {
			row.DiskType = "FC"
		}
		if s.Paths == fleet.DualPath {
			row.Multipathing = "single-path dual-path"
		} else if row.Multipathing == "" {
			row.Multipathing = "single-path"
		}
	}
	return rows
}
