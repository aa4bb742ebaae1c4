package ledgertally_test

import (
	"testing"

	"rankjoin/internal/analysis/analysistest"
	"rankjoin/internal/analysis/passes/ledgertally"
)

func TestLedgerTally(t *testing.T) {
	analysistest.Run(t, ledgertally.Analyzer, "vj", "notkernel")
}
