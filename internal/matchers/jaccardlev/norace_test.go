//go:build !race

package jaccardlev

const raceEnabled = false
