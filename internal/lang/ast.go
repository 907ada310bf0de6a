package lang

// The abstract syntax tree. Positions (line numbers) are kept on the nodes
// that semantic analysis reports errors against.

type astProgram struct {
	name    string
	regions []*astRegion
	parts   []*astPartition
	tasks   []*astTask
	stmts   []astStmt
}

type astRegion struct {
	name   string
	lo, hi int64
	fields []string
	line   int
}

type astPartition struct {
	name   string
	kind   string // "block" or "image"
	region string // partitioned region (block) / destination region (image)
	srcPd  string // source partition (image)
	n      int64  // block count
	fn     astFunctor
	line   int
}

type astFunctor struct {
	kind string // "shift", "window" or "ring"
	a, b int64
}

type astTask struct {
	name   string
	params []astParam
	body   []astKStmt
	line   int
}

type astParam struct {
	name     string
	isScalar bool
	reads    []string
	writes   []string
	reduceOp string // "", "+", "min", "max"
	reduces  []string
	line     int
}

// Kernel statements.
type astKStmt interface{ kstmt() }

type astKFor struct {
	v    string
	over string // region parameter iterated
	body []astKStmt
	line int
}

type astKAssign struct {
	dst  astAccess
	op   string // "=" or "+="
	expr astExpr
	line int
}

type astKResult struct {
	op   string // "+", "min", "max"
	expr astExpr
	line int
}

func (*astKFor) kstmt()    {}
func (*astKAssign) kstmt() {}
func (*astKResult) kstmt() {}

// astAccess is param.field[index].
type astAccess struct {
	param, field string
	idx          astIndex
	line         int
}

// astIndex is v+off, optionally wrapped mod m.
type astIndex struct {
	v   string
	off int64
	mod int64 // 0 = no wrap
}

// Expressions.
type astExpr interface{ expr() }

type astNum struct{ v float64 }
type astRef struct {
	name string
	line int
}
type astAcc struct{ a astAccess }
type astBin struct {
	op   byte // + - * /
	l, r astExpr
}
type astNeg struct{ e astExpr }

func (astNum) expr() {}
func (astRef) expr() {}
func (astAcc) expr() {}
func (astBin) expr() {}
func (astNeg) expr() {}

// Main-level statements.
type astStmt interface{ stmt() }

type astFill struct {
	region, field string
	idx           bool // fill with the element index
	value         float64
	line          int
}

type astVar struct {
	name  string
	value float64
	line  int
}

type astLoop struct {
	v      string
	lo, hi int64
	body   []astStmt
	line   int
}

type astLaunch struct {
	task       string
	args       []string  // partition names, each written NAME[i]
	scalarArgs []astExpr // restricted to refs and numbers
	reduceOp   string    // "" if no scalar reduction
	reduceInto string
	line       int
}

func (*astFill) stmt()   {}
func (*astVar) stmt()    {}
func (*astLoop) stmt()   {}
func (*astLaunch) stmt() {}
