package main

import "runtime"

// memCost is what a measured interval allocated, how many collections ran
// inside it, and the live heap it left behind.
type memCost struct {
	alloc uint64 // bytes allocated during the interval
	gcs   uint32 // collections the runtime ran during the interval
	live  uint64 // live heap after a forced collection at the end
}

// measured runs f under the process's own collector settings and returns what
// it allocated and collected. f starts from a collected heap, so every run of
// an interval meets the pacer in the same state; the collections the pacer
// starts inside f are part of what it measures, stalls and CPU alike. The
// forced collections before and after f are not.
func measured(f func()) memCost {
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	return memCost{alloc: m1.TotalAlloc - m0.TotalAlloc, gcs: m1.NumGC - m0.NumGC, live: m2.HeapAlloc}
}
