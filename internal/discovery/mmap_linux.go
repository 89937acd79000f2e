//go:build linux

package discovery

// Memory mapping for sealed segment files on Linux. The mapping is
// read-only and shared: the bytes live in the page cache, not on the Go
// heap, so a catalog's resident size is bounded by the working set the
// kernel keeps hot — not by the corpus. Other platforms take the portable
// heap-read arm (mmap_fallback.go).

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

const mmapAvailable = true

// mapSegmentFile maps the segment file at path read-only and returns the
// bytes plus the unmap function. The file descriptor is closed before
// returning — the mapping keeps the pages alive on its own. Empty files
// return empty data (the caller rejects them as truncated). The mapping is
// shared, so it sees every later write to the file in place, and a file
// truncated under it faults the reader: segment files are only ever
// replaced by rename. LSH probes and column reads hop across the segment,
// so sequential readahead would fault in pages the query never touches and
// evict hotter ones; MADV_RANDOM is advisory only — failure changes
// performance, not behavior.
func mapSegmentFile(path string) (data []byte, unmap func() error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, func() error { return nil }, nil
	}
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("discovery: %s: %d bytes exceed the address space", path, size)
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("discovery: mmap %s: %w", path, err)
	}
	_ = syscall.Madvise(data, syscall.MADV_RANDOM)
	return data, func() error { return syscall.Munmap(data) }, nil
}

// mincoreResidentBytes estimates how many of the mapping's bytes are
// currently resident in the page cache. Small mappings are probed exactly;
// large ones are sampled (evenly spaced page windows, bounded syscall
// count) and scaled, so the estimate stays cheap enough for a stats
// endpoint polled per scrape. An unprobeable mapping reports fully
// resident — overestimating residency is the conservative direction for a
// "bigger than RAM" dial.
func mincoreResidentBytes(data []byte) int64 {
	size := int64(len(data))
	if size == 0 {
		return 0
	}
	page := int64(syscall.Getpagesize())
	pages := (size + page - 1) / page
	const maxExact = 4096 // probe ≤ 16 MiB (4 KiB pages) in one call
	if pages <= maxExact {
		vec := make([]byte, pages)
		if !mincoreRange(&data[0], size, vec) {
			return size
		}
		return residentCount(vec)*page - overshoot(pages, page, size, vec)
	}
	const windows, winPages = 64, 64
	stride := pages / windows
	vec := make([]byte, winPages)
	var probed, resident int64
	for w := int64(0); w < windows; w++ {
		startPage := w * stride
		n := int64(winPages)
		if startPage+n > pages {
			n = pages - startPage
		}
		off := startPage * page
		length := n * page
		if off+length > size {
			length = size - off
		}
		if !mincoreRange(&data[off], length, vec[:n]) {
			return size
		}
		resident += residentCount(vec[:n])
		probed += n
	}
	return int64(float64(size) * float64(resident) / float64(probed))
}

// mincoreRange fills vec with one residency byte per page of [addr,
// addr+length). Reports false when the kernel refuses the probe.
func mincoreRange(addr *byte, length int64, vec []byte) bool {
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE,
		uintptr(unsafe.Pointer(addr)), uintptr(length), uintptr(unsafe.Pointer(&vec[0])))
	return errno == 0
}

func residentCount(vec []byte) int64 {
	n := int64(0)
	for _, v := range vec {
		if v&1 != 0 {
			n++
		}
	}
	return n
}

// overshoot trims the partial last page when it is resident, so an exact
// probe never reports more resident bytes than the mapping has.
func overshoot(pages, page, size int64, vec []byte) int64 {
	if vec[pages-1]&1 != 0 {
		return pages*page - size
	}
	return 0
}
