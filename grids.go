package storagesubsys

import "embed"

// ScenarioFiles holds the committed scenario files under
// examples/scenarios/, compiled into every binary that resolves a
// built-in grid. They are the only definition of the built-in grids:
// internal/scenario.Builtin parses them, and cmd/sweep -grid NAME
// sweeps exactly what -grid-file examples/scenarios/NAME.json would.
//
//go:embed examples/scenarios/*.json
var ScenarioFiles embed.FS
