// Chunked snapshot transfer: the codec side.
//
// A transfer payload (EncodeTransfer: snapshot + retained dedup window)
// historically traveled as ONE wire frame, which caps the shippable
// machine state at the codec's MaxValueLen — a replicated KV holding a
// few multi-MB values simply could not be transferred. Chunking lifts
// the cliff without touching the trust model:
//
//	SNAP_RESP  carries a one-byte form tag. Form 0 is the inline payload
//	           (small states: exactly the historical single frame, one
//	           byte longer). Form 1 is a MANIFEST: the payload digest,
//	           the snapshot position, and the SHA-256 of every chunk.
//	SNAP_ACK   requester → server: "send me chunks [From, From+Window)
//	           of payload Digest". Re-sent for whatever range is still
//	           missing, which is the whole loss-recovery story.
//	SNAP_CHUNK server → requester: one chunk, tagged with the payload
//	           digest and its index.
//
// The t+1 corroboration moves to the MANIFEST bytes: the manifest is a
// pure function of the payload (itself a pure function of the committed
// prefix), so correct replicas produce byte-identical manifests and
// t+1 matching copies pin every chunk hash before a single chunk is
// fetched. Each arriving chunk is checked against its pinned hash, so a
// Byzantine server can withhold (the ack re-requests from another
// corroborator) but never corrupt; the assembled payload is re-hashed
// against the manifest digest and then travels the exact validation
// path an inline payload does (DecodeTransfer → Applier.Install).
package sm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/types"
)

// Transfer response form tags (first byte of every SNAP_RESP value).
const (
	// TransferFormInline marks a complete EncodeTransfer payload.
	TransferFormInline = 0
	// TransferFormManifest marks an EncodeManifest body.
	TransferFormManifest = 1
	// TransferFormCatchUp marks a u64 applied-instance frontier followed
	// by an EncodeTransfer payload whose retained entries run past the
	// snapshot index up to that frontier (see Transfer.serve).
	TransferFormCatchUp = 2
)

// TransferInlineMax is the largest payload served inline (form 0).
// Anything bigger goes through the manifest/chunk protocol. Well under
// wire.MaxValueLen so an inline frame always fits the codec; big enough
// that the simulation suites' small states keep the historical
// single-frame schedule.
const TransferInlineMax = 64 << 10

// TransferChunkSize is the chunk payload size (except the final chunk).
// With the 36-byte chunk header the frame stays far inside
// wire.MaxValueLen.
const TransferChunkSize = 256 << 10

// MaxManifestChunks bounds a manifest's chunk count (Byzantine defense:
// a forged count must not force unbounded allocation). It also caps the
// largest transferable payload at MaxManifestChunks×TransferChunkSize
// (1 GiB with the defaults).
const MaxManifestChunks = 4096

// TransferChunkWindow is how many chunks one ack may request (and the
// amplification bound on the serve side: one 40-byte ack yields at most
// this many chunk frames).
const TransferChunkWindow = 16

// TransferStallLimit is how many consecutive retry firings a chunk
// download may go without receiving a single new chunk before the
// fetcher abandons it and re-corroborates from scratch. Staleness is
// invisible to the fetcher: the serve side silently ignores acks whose
// payload digest no longer matches its current snapshot (the retained
// suffix grows while the boundary stands still, so same-instance
// payloads drift), and a download pinned to such a digest would
// otherwise retry forever. Abandoning also clears the manifest
// candidate's corroboration, so restarting the download takes t+1
// fresh senders — one Byzantine replay of the dead manifest cannot
// re-pin the fetcher. A fetch round without a download ends after the
// same number of firings with no response ahead of the fetcher: the
// peers have nothing newer to serve.
const TransferStallLimit = 3

// chunkDigestLen prefixes chunk and ack frames (SHA-256).
const chunkDigestLen = 32

// Manifest describes a chunked transfer payload: position, geometry and
// the hash of every chunk. Its ENCODING is the corroboration unit — see
// the package comment.
type Manifest struct {
	// Index / Instance are the snapshot position (must match the decoded
	// payload's, checked at assembly).
	Index    int
	Instance types.Instance
	// TotalLen is the payload length in bytes.
	TotalLen int
	// Payload is the SHA-256 of the full transfer payload — the key the
	// acks and chunks are tagged with.
	Payload [32]byte
	// Hashes[i] is the SHA-256 of chunk i. len(Hashes) ==
	// ceil(TotalLen/TransferChunkSize).
	Hashes [][32]byte
}

// ChunkCount returns the number of chunks the manifest's payload splits
// into.
func (m Manifest) ChunkCount() int { return len(m.Hashes) }

// ChunkLen returns the byte length of chunk i (TransferChunkSize except
// for the final chunk).
func (m Manifest) ChunkLen(i int) int {
	if i == len(m.Hashes)-1 {
		return m.TotalLen - i*TransferChunkSize
	}
	return TransferChunkSize
}

// BuildManifest splits a transfer payload into its manifest.
func BuildManifest(index int, instance types.Instance, payload []byte) (Manifest, error) {
	if len(payload) == 0 {
		return Manifest{}, fmt.Errorf("sm: empty transfer payload")
	}
	count := (len(payload) + TransferChunkSize - 1) / TransferChunkSize
	if count > MaxManifestChunks {
		return Manifest{}, fmt.Errorf("sm: payload of %d bytes needs %d chunks (max %d)",
			len(payload), count, MaxManifestChunks)
	}
	m := Manifest{
		Index:    index,
		Instance: instance,
		TotalLen: len(payload),
		Payload:  sha256.Sum256(payload),
		Hashes:   make([][32]byte, count),
	}
	for i := 0; i < count; i++ {
		lo := i * TransferChunkSize
		hi := lo + m.ChunkLen(i)
		m.Hashes[i] = sha256.Sum256(payload[lo:hi])
	}
	return m, nil
}

// manifestHeaderLen: u64 index ‖ u64 instance ‖ u64 total length ‖
// u32 chunk count, followed by the payload digest and the chunk hashes.
const manifestHeaderLen = 8 + 8 + 8 + 4

// EncodeManifest flattens a manifest (without the form tag — the
// transfer layer prepends it).
func EncodeManifest(m Manifest) []byte {
	buf := make([]byte, manifestHeaderLen+chunkDigestLen+len(m.Hashes)*32)
	binary.LittleEndian.PutUint64(buf, uint64(m.Index))
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.Instance))
	binary.LittleEndian.PutUint64(buf[16:], uint64(m.TotalLen))
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(m.Hashes)))
	copy(buf[manifestHeaderLen:], m.Payload[:])
	off := manifestHeaderLen + chunkDigestLen
	for _, h := range m.Hashes {
		copy(buf[off:], h[:])
		off += 32
	}
	return buf
}

// DecodeManifest is EncodeManifest's strict inverse: every field bound
// is checked (the bytes may come from a Byzantine peer) and trailing
// bytes are refused, so decode→encode is canonical.
func DecodeManifest(b []byte) (Manifest, error) {
	var m Manifest
	if len(b) < manifestHeaderLen+chunkDigestLen {
		return m, fmt.Errorf("sm: manifest of %d bytes is too short", len(b))
	}
	idx := binary.LittleEndian.Uint64(b)
	inst := binary.LittleEndian.Uint64(b[8:])
	total := binary.LittleEndian.Uint64(b[16:])
	count := binary.LittleEndian.Uint32(b[24:])
	if idx > 1<<62 || inst > 1<<62 {
		return m, fmt.Errorf("sm: manifest position out of range")
	}
	if count == 0 || count > MaxManifestChunks {
		return m, fmt.Errorf("sm: manifest chunk count %d out of range", count)
	}
	if total == 0 || total > uint64(count)*TransferChunkSize ||
		total <= uint64(count-1)*TransferChunkSize {
		return m, fmt.Errorf("sm: manifest length %d does not fill %d chunks", total, count)
	}
	if len(b) != manifestHeaderLen+chunkDigestLen+int(count)*32 {
		return m, fmt.Errorf("sm: manifest of %d bytes does not hold %d hashes", len(b), count)
	}
	m.Index, m.Instance, m.TotalLen = int(idx), types.Instance(inst), int(total)
	copy(m.Payload[:], b[manifestHeaderLen:])
	m.Hashes = make([][32]byte, count)
	off := manifestHeaderLen + chunkDigestLen
	for i := range m.Hashes {
		copy(m.Hashes[i][:], b[off:])
		off += 32
	}
	return m, nil
}

// chunkHeaderLen: payload digest ‖ u32 chunk index.
const chunkHeaderLen = chunkDigestLen + 4

// EncodeChunk frames one chunk of the payload named by digest.
func EncodeChunk(digest [32]byte, index int, data []byte) types.Value {
	buf := make([]byte, chunkHeaderLen+len(data))
	copy(buf, digest[:])
	binary.LittleEndian.PutUint32(buf[chunkDigestLen:], uint32(index))
	copy(buf[chunkHeaderLen:], data)
	return types.Value(buf)
}

// DecodeChunk is EncodeChunk's strict inverse. The chunk DATA is not
// validated here — only the manifest holder knows the expected hash and
// length; the transfer layer checks both against the corroborated
// manifest.
func DecodeChunk(v types.Value) (digest [32]byte, index int, data []byte, err error) {
	b := []byte(v)
	if len(b) < chunkHeaderLen {
		return digest, 0, nil, fmt.Errorf("sm: chunk frame of %d bytes is too short", len(b))
	}
	if len(b) > chunkHeaderLen+TransferChunkSize {
		return digest, 0, nil, fmt.Errorf("sm: chunk frame of %d bytes exceeds chunk size", len(b))
	}
	copy(digest[:], b)
	idx := binary.LittleEndian.Uint32(b[chunkDigestLen:])
	if idx >= MaxManifestChunks {
		return digest, 0, nil, fmt.Errorf("sm: chunk index %d out of range", idx)
	}
	return digest, int(idx), b[chunkHeaderLen:], nil
}

// ackFrameLen: payload digest ‖ u32 from ‖ u32 window.
const ackFrameLen = chunkDigestLen + 4 + 4

// EncodeAck frames a range request: "send chunks [from, from+window) of
// payload digest".
func EncodeAck(digest [32]byte, from, window int) types.Value {
	buf := make([]byte, ackFrameLen)
	copy(buf, digest[:])
	binary.LittleEndian.PutUint32(buf[chunkDigestLen:], uint32(from))
	binary.LittleEndian.PutUint32(buf[chunkDigestLen+4:], uint32(window))
	return types.Value(buf)
}

// DecodeAck is EncodeAck's strict inverse; the window is bounded so a
// forged ack cannot request more than TransferChunkWindow chunks.
func DecodeAck(v types.Value) (digest [32]byte, from, window int, err error) {
	b := []byte(v)
	if len(b) != ackFrameLen {
		return digest, 0, 0, fmt.Errorf("sm: ack frame of %d bytes, want %d", len(b), ackFrameLen)
	}
	copy(digest[:], b)
	f := binary.LittleEndian.Uint32(b[chunkDigestLen:])
	w := binary.LittleEndian.Uint32(b[chunkDigestLen+4:])
	if f >= MaxManifestChunks {
		return digest, 0, 0, fmt.Errorf("sm: ack range start %d out of range", f)
	}
	if w == 0 || w > TransferChunkWindow {
		return digest, 0, 0, fmt.Errorf("sm: ack window %d out of range", w)
	}
	return digest, int(f), int(w), nil
}
