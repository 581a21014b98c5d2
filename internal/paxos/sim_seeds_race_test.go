//go:build race

package paxos

// simSweepSeeds is how many seeds TestSimSweep runs under the race
// detector, which slows the simulator about tenfold.
const simSweepSeeds = 1000
