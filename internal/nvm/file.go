package nvm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// File format. A file medium is one file, fileName, under its
// directory: a header, then bank-tagged frames in write order.
//
//	header  magic u32, bank count u32
//	frame   bank u32, n u32, n little-endian words (an append to bank)
//	        bank u32, eraseMark u32                (an erase of bank)
//
// All integers are little-endian. Every Append or Erase is one frame
// in one positional write at the tail, so a killed process can tear
// at most the final frame.
//
// Open reclaims space: a file more than twice its live size (the
// header plus one frame per non-empty bank) is rewritten as exactly
// that, into tmpName, which is then renamed over fileName.
const (
	fileName           = "medium.nvm"
	tmpName            = fileName + ".tmp"
	fileMagic   uint32 = 0x314D564E // "NVM1"
	headerLen          = 8
	frameHdrLen        = 8
	eraseMark   uint32 = 0xFFFFFFFF
	// legacyBank0 is the first bank file of the retired
	// one-file-per-bank layout, which OpenFileMedium refuses.
	legacyBank0 = "bank-0000.nvm"
)

// FileMedium persists every bank in one file with write-through
// durability: each Append or Erase is one frame, issued as one
// positional write at the file's tail before it is acknowledged, so a
// killed process (SIGKILL mid-run) finds every acknowledged word on
// restart — the kernel completes in-flight page-cache writes even
// when the process dies. That is the durability the restart-survival
// contract needs; it is weaker than a powerfail-safe disk (no fsync
// per write — a whole-machine power cut could drop the page-cache
// tail, which the torn-tail replay then rolls back, exactly like a
// simulated cut).
//
// A kill can still land inside one write. Frames are written one at a
// time under the medium's lock, so only the final frame can be torn;
// open truncates it, and a torn frame reads as never written, the
// file analogue of a record that never reached its cells. A write
// that fails short fails the medium closed: no later frame may follow
// a partial one, so every later Append and Erase errors.
//
// Erased and superseded frames stay in the file until the next open,
// which rewrites the file from the mirrors once it is more than twice
// its live size (see reclaim).
type FileMedium struct {
	f *os.File
	// mirror is each bank's in-RAM copy for zero-copy reads. Each
	// bank's owner serializes its own accesses (see Medium), so only
	// the file tail needs the lock.
	mirror  [][]uint16
	dropped []bool

	mu   sync.Mutex // serializes frame writes
	tail int64      // file offset of the next frame
	enc  []byte     // reusable frame encode buffer
	err  error      // non-nil once a write failed: the medium is closed to writes
}

// OpenFileMedium opens (creating as needed) a file-backed medium
// under dir. A new file gets the given bank count; an existing file
// keeps the count in its header — the geometry is part of the durable
// state, so callers read it back with Banks. A directory holding the
// retired one-file-per-bank layout, or a file with a bad magic
// number, is refused; there is no migration.
func OpenFileMedium(dir string, banks int) (*FileMedium, error) {
	if _, err := os.Stat(filepath.Join(dir, legacyBank0)); err == nil {
		return nil, fmt.Errorf("nvm: %s holds the one-file-per-bank layout, which this medium does not read; use a fresh directory", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("nvm: open file medium: %w", err)
	}
	// A temporary file is a reclaim killed before its rename; the
	// medium it was copying is still whole.
	if err := os.Remove(filepath.Join(dir, tmpName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("nvm: open file medium: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, fileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("nvm: open file medium: %w", err)
	}
	m := &FileMedium{f: f}
	if err := m.load(banks); err != nil {
		f.Close()
		return nil, fmt.Errorf("nvm: open %s: %w", f.Name(), err)
	}
	if err := m.reclaim(dir); err != nil {
		m.f.Close()
		return nil, fmt.Errorf("nvm: reclaim %s: %w", filepath.Join(dir, fileName), err)
	}
	return m, nil
}

// reclaim rewrites the file as its live image (the header plus one
// frame per non-empty bank) when the file is more than twice that
// size. The image goes to tmpName and is synced before it is renamed
// over the medium, so a kill at any byte of the rewrite leaves the
// old file whole; the next open removes the stale temporary.
func (m *FileMedium) reclaim(dir string) error {
	live := int64(headerLen)
	for _, ws := range m.mirror {
		if len(ws) > 0 {
			live += frameHdrLen + 2*int64(len(ws))
		}
	}
	if m.tail <= 2*live {
		return nil
	}
	img := make([]byte, 0, live)
	img = binary.LittleEndian.AppendUint32(img, fileMagic)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(m.mirror)))
	for b, ws := range m.mirror {
		if len(ws) == 0 {
			continue
		}
		img = binary.LittleEndian.AppendUint32(img, uint32(b))
		img = binary.LittleEndian.AppendUint32(img, uint32(len(ws)))
		for _, w := range ws {
			img = binary.LittleEndian.AppendUint16(img, w)
		}
	}
	tmp := filepath.Join(dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(img)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, fileName))
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	m.f.Close()
	m.f, m.tail = f, int64(len(img))
	return nil
}

// load reads the header (writing one for a new file) and replays
// every complete frame into the bank mirrors, truncating a torn final
// frame.
func (m *FileMedium) load(banks int) error {
	fi, err := m.f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	r := bufio.NewReaderSize(m.f, 64<<10)
	var hdr [headerLen]byte
	n, err := io.ReadFull(r, hdr[:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		// Empty, or a creation killed before its header landed.
		var want [headerLen]byte
		binary.LittleEndian.PutUint32(want[0:], fileMagic)
		if string(hdr[:min(n, 4)]) != string(want[:min(n, 4)]) {
			return errors.New("bad magic number")
		}
		if banks < 1 || uint64(banks) >= uint64(eraseMark) {
			return fmt.Errorf("bank count %d out of range", banks)
		}
		binary.LittleEndian.PutUint32(want[4:], uint32(banks))
		if err := m.f.Truncate(0); err != nil {
			return err
		}
		if _, err := m.f.WriteAt(want[:], 0); err != nil {
			return err
		}
		m.tail = headerLen
		m.mirror = make([][]uint16, banks)
		m.dropped = make([]bool, banks)
		return nil
	}
	if err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != fileMagic {
		return errors.New("bad magic number")
	}
	nb := binary.LittleEndian.Uint32(hdr[4:])
	if nb == 0 || nb == eraseMark {
		return fmt.Errorf("header bank count %d out of range", nb)
	}
	m.mirror = make([][]uint16, nb)
	m.dropped = make([]bool, nb)

	off := int64(headerLen)
	var raw []byte
	for {
		var fh [frameHdrLen]byte
		if _, err := io.ReadFull(r, fh[:]); err == io.EOF || err == io.ErrUnexpectedEOF {
			break // clean end, or a torn frame header
		} else if err != nil {
			return err
		}
		b, cnt := binary.LittleEndian.Uint32(fh[0:]), binary.LittleEndian.Uint32(fh[4:])
		if b >= nb {
			return fmt.Errorf("frame at offset %d names bank %d of %d", off, b, nb)
		}
		if cnt == eraseMark {
			m.mirror[b] = m.mirror[b][:0]
			off += frameHdrLen
			continue
		}
		need := 2 * int64(cnt)
		if off+frameHdrLen+need > size {
			break // torn frame body
		}
		if int64(cap(raw)) < need {
			raw = make([]byte, need)
		}
		raw = raw[:need]
		if _, err := io.ReadFull(r, raw); err != nil {
			return err
		}
		for i := 0; i < len(raw); i += 2 {
			m.mirror[b] = append(m.mirror[b], binary.LittleEndian.Uint16(raw[i:]))
		}
		off += frameHdrLen + need
	}
	if off < size {
		if err := m.f.Truncate(off); err != nil {
			return fmt.Errorf("trim torn frame: %w", err)
		}
	}
	m.tail = off
	return nil
}

// Banks returns the bank count.
func (m *FileMedium) Banks() int { return len(m.mirror) }

// writeFrame writes one frame for bank b — cnt words ws, or an erase
// when cnt is eraseMark — at the tail. A short write is cut back off
// the file and fails the medium closed. Callers hold m.mu.
func (m *FileMedium) writeFrame(b int, cnt uint32, ws []uint16) error {
	if m.err != nil {
		return m.err
	}
	if m.f == nil {
		return errors.New("nvm: write to a closed file medium")
	}
	if m.dropped[b] {
		return fmt.Errorf("nvm: bank %d was dropped", b)
	}
	buf := binary.LittleEndian.AppendUint32(m.enc[:0], uint32(b))
	buf = binary.LittleEndian.AppendUint32(buf, cnt)
	for _, w := range ws {
		buf = binary.LittleEndian.AppendUint16(buf, w)
	}
	m.enc = buf
	if _, err := m.f.WriteAt(buf, m.tail); err != nil {
		err = errors.Join(err, m.f.Truncate(m.tail))
		m.err = fmt.Errorf("nvm: write bank %d (medium failed closed): %w", b, err)
		return m.err
	}
	m.tail += int64(len(buf))
	return nil
}

// Append writes the words ws through to bank b as one frame, then
// mirrors them. On error no word of ws is durable: a partial frame
// reads as never written.
func (m *FileMedium) Append(b int, ws []uint16) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(ws) == 0 {
		return m.err
	}
	if err := m.writeFrame(b, uint32(len(ws)), ws); err != nil {
		return err
	}
	m.mirror[b] = append(m.mirror[b], ws...)
	return nil
}

// Len returns bank b's word count.
func (m *FileMedium) Len(b int) int { return len(m.mirror[b]) }

// Words returns bank b's words (the in-RAM mirror).
func (m *FileMedium) Words(b int) []uint16 { return m.mirror[b] }

// Erase writes an erase frame for bank b and clears its mirror. An
// empty bank needs no frame.
func (m *FileMedium) Erase(b int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.mirror[b]) == 0 && !m.dropped[b] {
		return m.err
	}
	if err := m.writeFrame(b, eraseMark, nil); err != nil {
		return err
	}
	m.mirror[b] = m.mirror[b][:0]
	return nil
}

// DropBank releases bank b's RAM mirror once its owner is done with
// it; the file keeps the words. Until the medium is reopened the bank
// reads as empty and refuses writes.
func (m *FileMedium) DropBank(b int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mirror[b] = nil
	m.dropped[b] = true
}

// Close closes the file. The mirrors stay readable.
func (m *FileMedium) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return nil
	}
	err := m.f.Close()
	m.f = nil
	return err
}
