// Package race reports whether the binary was built with the race detector,
// so that slow exhaustive tests can take a subsample under it: the detector
// slows them about tenfold and sees the same concurrent accesses either way.
package race
