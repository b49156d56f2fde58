// Package quickseed gives testing/quick property checks an explicit,
// logged seed, so every randomized check is deterministic by default and
// any failure replays.
package quickseed

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
)

// EnvVar overrides the seed of every seeded check:
//
//	IRRED_QUICK_SEED=42 go test -run TestName ./internal/pkg
const EnvVar = "IRRED_QUICK_SEED"

// DefaultSeed seeds the checks when EnvVar is unset.
const DefaultSeed = 1

// Config returns a quick.Config that draws from a seeded source and logs
// the seed. maxCount zero keeps quick's default count.
func Config(tb testing.TB, maxCount int) *quick.Config {
	tb.Helper()
	seed := int64(DefaultSeed)
	if v := os.Getenv(EnvVar); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			tb.Fatalf("quickseed: %s=%q is not an integer", EnvVar, v)
		}
		seed = s
	}
	tb.Logf("quick seed %d (replay with %s=%d)", seed, EnvVar, seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}
