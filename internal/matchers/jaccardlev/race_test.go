//go:build race

package jaccardlev

// raceEnabled: the race detector slows the reference comparison about
// tenfold and sees the same concurrent accesses on 34 grid pairs as on
// 168, so TestFuzzyJaccardMatchesRef takes its -short stride under it.
const raceEnabled = true
