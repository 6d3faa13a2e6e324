package sweep

import "storagesubsys/internal/failmodel"

// ScenarioParams returns the failure-model overrides the engine runs
// the scenario's trials under (nil for the defaults).
func ScenarioParams(s Scenario) *failmodel.Params { return s.params() }
