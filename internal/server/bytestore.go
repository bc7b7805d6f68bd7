package server

import "mhafs/internal/units"

// ByteStore is a sparse in-memory byte array: the storage medium behind a
// simulated file server. Unwritten ranges read as zeros, like a sparse
// POSIX file. Storage is chunked so a server holding a few scattered
// stripes of a terabyte-scale file costs memory proportional to the data
// actually written.
type ByteStore struct {
	chunkSize int64
	chunks    map[int64][]byte
	size      int64 // high-water mark: one past the last written byte
}

// DefaultChunkSize balances map overhead against slack for typical stripe
// sizes (4 KB – several MB).
const DefaultChunkSize = 256 * units.KB

// NewByteStore creates a store with the given chunk size (0 selects the
// default).
func NewByteStore(chunkSize int64) *ByteStore {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &ByteStore{chunkSize: chunkSize, chunks: make(map[int64][]byte)}
}

// WriteAt stores p at offset off, growing the store as needed. A negative
// offset panics: offsets are validated at the middleware boundary, so one
// arriving here is a programmer error in the layout math.
func (b *ByteStore) WriteAt(p []byte, off int64) {
	if off < 0 {
		panic("server: negative write offset")
	}
	for len(p) > 0 {
		ci := off / b.chunkSize
		within := off % b.chunkSize
		chunk := b.chunks[ci]
		if chunk == nil {
			// Allocated once, by the first write touching the chunk.
			chunk = make([]byte, b.chunkSize) //mhavet:allow literal
			b.chunks[ci] = chunk
		}
		n := copy(chunk[within:], p)
		p = p[n:]
		off += int64(n)
	}
	if off > b.size {
		b.size = off
	}
}

// ReadAt fills p from offset off; unwritten bytes are zero. Like WriteAt,
// a negative offset is a programmer error and panics.
func (b *ByteStore) ReadAt(p []byte, off int64) {
	if off < 0 {
		panic("server: negative read offset")
	}
	for len(p) > 0 {
		ci := off / b.chunkSize
		within := off % b.chunkSize
		n := int64(len(p))
		if room := b.chunkSize - within; n > room {
			n = room
		}
		if chunk := b.chunks[ci]; chunk != nil {
			copy(p[:n], chunk[within:within+n])
		} else {
			for i := int64(0); i < n; i++ {
				p[i] = 0
			}
		}
		p = p[n:]
		off += n
	}
}

// Size returns the high-water mark (one past the last byte ever written).
func (b *ByteStore) Size() int64 { return b.size }

// StoredBytes returns the bytes of backing memory actually allocated.
func (b *ByteStore) StoredBytes() int64 {
	return int64(len(b.chunks)) * b.chunkSize
}

// Reset discards all data.
func (b *ByteStore) Reset() {
	b.chunks = make(map[int64][]byte)
	b.size = 0
}
