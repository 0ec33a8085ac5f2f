package window

import (
	"encoding/gob"
	"fmt"
	"io"

	"slicenstitch/internal/stream"
	"slicenstitch/internal/tensor"
)

// windowDTO is the wire form of a Window (gob-encoded): geometry, clock,
// the sparse window entries, and the pending scheduled events — everything
// needed to resume the continuous tensor model exactly.
type windowDTO struct {
	Dims   []int
	W      int
	Period int64
	Seq    uint64
	Now    int64
	// Keys/Vals are the nonzeros of D(t,W) in deterministic order.
	Keys []uint64
	Vals []float64
	// Pending are the scheduled S.2/S.3 events.
	Pending []scheduledDTO
}

// scheduledDTO is the wire form of one pending event. The in-memory
// schedule packs the coordinate into a key; the wire format keeps the
// explicit Tuple so checkpoints stay readable and geometry-checked.
type scheduledDTO struct {
	Time  int64
	Seq   uint64
	W     int
	Tuple stream.Tuple
}

// Encode writes the window state to w (gob).
func (win *Window) Encode(w io.Writer) error {
	dto := windowDTO{
		Dims:   win.Dims(),
		W:      win.w,
		Period: win.t,
		Now:    win.now,
		Seq:    win.seq,
	}
	keys, vals := win.x.Entries()
	dto.Keys = make([]uint64, 0, win.x.NNZ())
	dto.Vals = make([]float64, 0, win.x.NNZ())
	for j, k := range keys {
		if k != tensor.Tombstone {
			dto.Keys = append(dto.Keys, k)
			dto.Vals = append(dto.Vals, vals[j])
		}
	}
	for _, ev := range win.pq {
		coord := make([]int, len(win.dims))
		win.decodeCat(ev.key, coord)
		dto.Pending = append(dto.Pending, scheduledDTO{
			Time: ev.time, Seq: ev.seq, W: ev.w,
			Tuple: stream.Tuple{Coord: coord, Value: ev.value, Time: ev.birth},
		})
	}
	return gob.NewEncoder(w).Encode(dto)
}

// DecodeWindow reads a window written by Encode and re-establishes the
// heap invariant.
func DecodeWindow(r io.Reader) (*Window, error) {
	var dto windowDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("window: decode: %w", err)
	}
	if dto.W <= 0 || dto.Period <= 0 || len(dto.Dims) == 0 {
		return nil, fmt.Errorf("window: decode: malformed geometry (W=%d T=%d dims=%v)", dto.W, dto.Period, dto.Dims)
	}
	if len(dto.Keys) != len(dto.Vals) {
		return nil, fmt.Errorf("window: decode: %d keys vs %d values", len(dto.Keys), len(dto.Vals))
	}
	win := New(dto.Dims, dto.W, dto.Period)
	win.now = dto.Now
	win.seq = dto.Seq
	for i, k := range dto.Keys {
		win.x.SetKey(k, dto.Vals[i])
	}
	for n, ev := range dto.Pending {
		if len(ev.Tuple.Coord) != len(win.dims) {
			return nil, fmt.Errorf("window: decode: pending %d arity %d != %d", n, len(ev.Tuple.Coord), len(win.dims))
		}
		for m, i := range ev.Tuple.Coord {
			if i < 0 || i >= win.dims[m] {
				return nil, fmt.Errorf("window: decode: pending %d coord %d = %d out of range [0,%d)", n, m, i, win.dims[m])
			}
		}
		win.pq = append(win.pq, scheduled{
			time: ev.Time, seq: ev.Seq, w: ev.W,
			key: win.catKey(ev.Tuple.Coord), value: ev.Tuple.Value, birth: ev.Tuple.Time,
		})
	}
	win.heapify()
	return win, nil
}
