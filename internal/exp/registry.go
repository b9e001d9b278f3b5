package exp

import (
	"fmt"
	"sort"
)

// experiments maps experiment ids to runners with default parameters for
// the parameterised figures.
var experiments = map[string]func(Scale) *Table{
	"fig2":   Fig2,
	"fig3":   Fig3,
	"fig9a":  Fig9a,
	"fig9b":  Fig9b,
	"fig10":  Fig10,
	"fig11a": Fig11a,
	"fig11b": Fig11b,
	"fig12":  Fig12,
	"fig13":  Fig13,
	"fig14":  func(sc Scale) *Table { return Fig14(sc, []float64{0.45, 0.65, 0.85}) },
	"table2": Table2,
	"fig15a": func(sc Scale) *Table { return Fig15a(sc, max(sc.TrainIters/4, 1)) },
	"fig15b": Fig15b,
	"fig16":  Fig16,
	"fig18":  Fig18,
	"fig19":  func(sc Scale) *Table { return Fig19(sc, max(sc.TrainIters/4, 1)) },
	"fig20":  Fig20,
	"fig21":  Fig21,
	"fig22":  Fig22,
	"table3": Table3,
	"fig23":  Fig23,
	"robust": Robust,
}

// IDs returns all experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id at the given scale.
func Run(id string, sc Scale) (*Table, error) {
	f, ok := experiments[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, IDs())
	}
	return f(sc), nil
}
