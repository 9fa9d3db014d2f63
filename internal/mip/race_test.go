//go:build race

package mip_test

const raceEnabled = true
