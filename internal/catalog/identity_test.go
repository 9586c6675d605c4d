package catalog

import (
	"bytes"
	"reflect"
	"testing"
)

// identityConfig is a configuration with every kind of structure and every
// optional field set.
func identityConfig() *Configuration {
	cfg := NewConfiguration()
	ix := NewIndex("t", "a", "b").WithInclude("c", "d")
	ix.Partitioning = NewPartitionScheme("a", 10, 20)
	cfg.AddIndex(ix)
	cix := NewIndex("s", "id")
	cix.Clustered, cix.FromConstraint = true, true
	cfg.AddIndex(cix)
	v := NewMaterializedView([]string{"t", "s"},
		[]JoinPred{{Left: NewColRef("t", "sid"), Right: NewColRef("s", "id")}},
		[]ColRef{NewColRef("s", "g")}, []ColRef{NewColRef("s", "g")},
		[]Agg{{Func: "SUM", Col: NewColRef("t", "a")}, {Func: "COUNT"}}, 42)
	v.Partitioning = NewPartitionScheme("s.g", 3)
	cfg.AddView(v)
	cfg.SetTablePartitioning("t", NewPartitionScheme("b", 5))
	return cfg
}

// TestAppendIdentityCoversEveryField: equal configurations share an
// identity, and changing any one field of any structure — or the listing
// order — changes it.
func TestAppendIdentityCoversEveryField(t *testing.T) {
	// A new field must be encoded by AppendIdentity (and mutated below)
	// before this count is raised.
	for typ, n := range map[reflect.Type]int{
		reflect.TypeOf(Configuration{}):    3,
		reflect.TypeOf(Index{}):            6,
		reflect.TypeOf(MaterializedView{}): 8,
		reflect.TypeOf(PartitionScheme{}):  2,
		reflect.TypeOf(ColRef{}):           2,
		reflect.TypeOf(JoinPred{}):         2,
		reflect.TypeOf(Agg{}):              2,
	} {
		if typ.NumField() != n {
			t.Errorf("%s has %d fields, AppendIdentity encodes %d", typ, typ.NumField(), n)
		}
	}
	base := identityConfig().AppendIdentity(nil)
	if got := identityConfig().Clone().AppendIdentity(nil); !bytes.Equal(got, base) {
		t.Fatal("a clone has another identity")
	}
	var nilCfg *Configuration
	if !bytes.Equal(nilCfg.AppendIdentity(nil), NewConfiguration().AppendIdentity(nil)) {
		t.Fatal("a nil configuration must encode as an empty one")
	}
	for name, mutate := range map[string]func(c *Configuration){
		"index table":   func(c *Configuration) { c.Indexes[0].Table = "u" },
		"index key":     func(c *Configuration) { c.Indexes[0].KeyColumns[1] = "c" },
		"index include": func(c *Configuration) { c.Indexes[0].IncludeCols = c.Indexes[0].IncludeCols[:1] },
		"include order": func(c *Configuration) {
			ix := c.Indexes[0]
			ix.IncludeCols[0], ix.IncludeCols[1] = ix.IncludeCols[1], ix.IncludeCols[0]
		},
		"clustered":          func(c *Configuration) { c.Indexes[1].Clustered = false },
		"from constraint":    func(c *Configuration) { c.Indexes[1].FromConstraint = false },
		"index partitioning": func(c *Configuration) { c.Indexes[0].Partitioning = nil },
		"boundary":           func(c *Configuration) { c.Indexes[0].Partitioning.Boundaries[1] = 21 },
		"partition column":   func(c *Configuration) { c.Indexes[0].Partitioning.Column = "b" },
		"index order":        func(c *Configuration) { c.Indexes[0], c.Indexes[1] = c.Indexes[1], c.Indexes[0] },
		"view name":          func(c *Configuration) { c.Views[0].Name = "mv1" },
		"view tables":        func(c *Configuration) { c.Views[0].Tables = c.Views[0].Tables[:1] },
		"view join":          func(c *Configuration) { c.Views[0].JoinPreds[0].Right.Column = "key" },
		"view output":        func(c *Configuration) { c.Views[0].OutputColumns = nil },
		"view group by":      func(c *Configuration) { c.Views[0].GroupBy[0].Table = "t" },
		"view aggregate":     func(c *Configuration) { c.Views[0].Aggs[0].Func = "MAX" },
		"aggregate column":   func(c *Configuration) { c.Views[0].Aggs[1].Col.Column = "b" },
		"view rows":          func(c *Configuration) { c.Views[0].Rows++ },
		"view partitioning":  func(c *Configuration) { c.Views[0].Partitioning = nil },
		"table partitioning": func(c *Configuration) { c.TableParts["t"] = NewPartitionScheme("b", 6) },
		"partitioned table":  func(c *Configuration) { c.TableParts["s"] = c.TableParts["t"]; delete(c.TableParts, "t") },
	} {
		c := identityConfig()
		mutate(c)
		if bytes.Equal(c.AppendIdentity(nil), base) {
			t.Errorf("%s: changed configuration kept its identity", name)
		}
	}
}
