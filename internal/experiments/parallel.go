package experiments

// cell identifies one (benchmark, mode, config) execution of a sweep.
type cell struct {
	bench string
	mode  Mode
}

// benchModeCells enumerates benchmark x mode combinations that exist.
func benchModeCells(modes []Mode) []cell {
	var out []cell
	for _, b := range []string{"matrix", "fft", "model", "lud"} {
		for _, m := range modes {
			if ModeSupported(b, m) {
				out = append(out, cell{b, m})
			}
		}
	}
	return out
}
