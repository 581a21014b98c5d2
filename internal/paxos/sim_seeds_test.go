//go:build !race

package paxos

// simSweepSeeds is how many seeds TestSimSweep runs.
const simSweepSeeds = 10000
