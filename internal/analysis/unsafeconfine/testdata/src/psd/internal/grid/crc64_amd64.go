package grid

// The seam is per package: the kernel file's name grants nothing here.
func sum(p []float64) float64 // want `func sum has no body`
