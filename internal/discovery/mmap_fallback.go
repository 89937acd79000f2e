//go:build !linux

package discovery

// Portable arm of the mmap gate: platforms without the Linux mmap path read
// segment files into aligned heap buffers instead. Every byte past the read
// is served by the same code, so behavior is identical — only memory
// residency differs.

const mmapAvailable = false

// mapSegmentFile is never called when mmapAvailable is false; it exists so
// both build arms expose the same symbols.
func mapSegmentFile(path string) (data []byte, unmap func() error, err error) {
	panic("discovery: mapSegmentFile called with mmap unavailable")
}

// mincoreResidentBytes has nothing to probe without mmap. Never reached —
// every image here is heap-held, which residentMappedBytes reports as 0
// mapped bytes — and kept total for symbol parity.
func mincoreResidentBytes(data []byte) int64 { return int64(len(data)) }
