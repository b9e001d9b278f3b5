package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// snapshot is the on-disk representation of a parameter set.
type snapshot struct {
	Shapes [][2]int
	Data   [][]float64
}

// SaveParams writes the values of the given parameter tensors to w using
// encoding/gob. The parameter order must match at load time; Decima's
// models expose a stable Params() ordering for this purpose.
func SaveParams(w io.Writer, params []*Tensor) error {
	s := snapshot{}
	for _, p := range params {
		s.Shapes = append(s.Shapes, [2]int{p.Rows, p.Cols})
		d := make([]float64, len(p.Data))
		copy(d, p.Data)
		s.Data = append(s.Data, d)
	}
	return gob.NewEncoder(w).Encode(s)
}

// LoadParams reads parameter values written by SaveParams into the given
// tensors, checking shapes.
func LoadParams(r io.Reader, params []*Tensor) error {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	if len(s.Data) != len(params) {
		return fmt.Errorf("nn: snapshot has %d tensors, model has %d", len(s.Data), len(params))
	}
	for i, p := range params {
		if s.Shapes[i][0] != p.Rows || s.Shapes[i][1] != p.Cols {
			return fmt.Errorf("nn: tensor %d shape %v != %d×%d", i, s.Shapes[i], p.Rows, p.Cols)
		}
	}
	for i, p := range params {
		copy(p.Data, s.Data[i])
	}
	return nil
}
