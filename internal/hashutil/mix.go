package hashutil

// Mix64 is the SplitMix64 finalizer. The chaos RNG, the read-error draw
// and the rendezvous score each add their own increment first; the fault
// plans, census lines, draws and ranks they produce pin its constants.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
