package fsyncdiscipline_test

import (
	"testing"

	"psd/internal/analysis/analysistest"
	"psd/internal/analysis/fsyncdiscipline"
)

func TestIngestScope(t *testing.T) {
	analysistest.Run(t, fsyncdiscipline.Analyzer, "psd/internal/ingest")
}

func TestRecordLogScope(t *testing.T) {
	analysistest.Run(t, fsyncdiscipline.Analyzer, "psd/internal/recordlog")
}

func TestCmdScope(t *testing.T) {
	analysistest.Run(t, fsyncdiscipline.Analyzer, "psd/cmd/psdbench")
}

func TestOutOfScope(t *testing.T) {
	analysistest.Run(t, fsyncdiscipline.Analyzer, "psd/internal/core")
}
