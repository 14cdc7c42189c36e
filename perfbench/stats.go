package main

import (
	"sort"
	"time"
)

// durations collects latency samples in nanoseconds.
type durations []int64

func (d *durations) add(x time.Duration) { *d = append(*d, int64(x)) }

// quantile returns the q-quantile of the samples (linear interpolation
// between closest ranks), or 0 when there are none.
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]int64(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return time.Duration(s[len(s)-1])
	}
	frac := pos - float64(lo)
	return time.Duration(float64(s[lo]) + frac*float64(s[lo+1]-s[lo]))
}

func (d durations) sum() time.Duration {
	var t int64
	for _, x := range d {
		t += x
	}
	return time.Duration(t)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// splitmix derives independent sub-seeds from one benchmark seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
