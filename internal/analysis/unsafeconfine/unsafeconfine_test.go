package unsafeconfine_test

import (
	"testing"

	"psd/internal/analysis/analysistest"
	"psd/internal/analysis/unsafeconfine"
)

func TestSeamAllowlist(t *testing.T) {
	analysistest.Run(t, unsafeconfine.Analyzer, "psd/internal/core")
}

func TestOutsideSeam(t *testing.T) {
	analysistest.Run(t, unsafeconfine.Analyzer, "psd/internal/grid")
}

func TestAsmSeam(t *testing.T) {
	analysistest.Run(t, unsafeconfine.Analyzer, "psd/internal/checksum")
}
