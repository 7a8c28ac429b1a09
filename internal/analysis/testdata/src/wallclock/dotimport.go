package wallclock

import . "time"

// A dot import hides the package name, not the clock read.
func dotImported() Time {
	return Now() // want "time.Now reads the wall clock"
}
