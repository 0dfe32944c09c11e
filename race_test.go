//go:build race

package sqlcm

func init() { raceAllocSlack = 8 }
