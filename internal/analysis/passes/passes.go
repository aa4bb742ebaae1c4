// Package passes registers the repo-specific ranklint analyzers. Each
// subdirectory implements one pass; All returns them in reporting
// order. See DESIGN.md §10 for the invariant each pass encodes and the
// runtime check it front-runs.
package passes

import (
	"rankjoin/internal/analysis"
	"rankjoin/internal/analysis/passes/ctxflow"
	"rankjoin/internal/analysis/passes/ledgertally"
	"rankjoin/internal/analysis/passes/lockorder"
	"rankjoin/internal/analysis/passes/maporder"
	"rankjoin/internal/analysis/passes/metricreg"
	"rankjoin/internal/analysis/passes/nohedge"
	"rankjoin/internal/analysis/passes/spanend"
	"rankjoin/internal/analysis/passes/walack"
	"rankjoin/internal/analysis/passes/wraperr"
)

// All returns every registered analyzer, sorted by name.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		ledgertally.Analyzer,
		lockorder.Analyzer,
		maporder.Analyzer,
		metricreg.Analyzer,
		nohedge.Analyzer,
		spanend.Analyzer,
		walack.Analyzer,
		wraperr.Analyzer,
	}
}
