package main

import (
	"testing"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/rules"
)

func TestCellFilter(t *testing.T) {
	lib := cells.NewLibrary(rules.CNFET)
	_, unknown := lib.Get("NANDX_9X")
	for _, tc := range []struct {
		list    string
		keep    []string // names the filter must keep (nil filter: every cell)
		drop    []string // names it must drop
		wantErr string
	}{
		{list: ""},
		{list: "INV_1X,NAND2_2X", keep: []string{"INV_1X", "NAND2_2X"}, drop: []string{"NAND2_1X"}},
		{list: " INV_1X , NAND2_2X,", keep: []string{"INV_1X", "NAND2_2X"}, drop: []string{""}},
		{list: "NANDX_9X", wantErr: unknown.Error()},
		{list: "INV_1X,NANDX_9X", wantErr: unknown.Error()},
		{list: ",", wantErr: `-cells "," names no cells`},
	} {
		filter, err := cellFilter(lib, tc.list)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("cellFilter(%q) err = %v, want %q", tc.list, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("cellFilter(%q): %v", tc.list, err)
			continue
		}
		if tc.keep == nil {
			if filter != nil {
				t.Errorf("cellFilter(%q) = non-nil filter, want nil (every cell)", tc.list)
			}
			continue
		}
		for _, n := range tc.keep {
			if !filter(n) {
				t.Errorf("cellFilter(%q) drops %s", tc.list, n)
			}
		}
		for _, n := range tc.drop {
			if filter(n) {
				t.Errorf("cellFilter(%q) keeps %q", tc.list, n)
			}
		}
	}
}
