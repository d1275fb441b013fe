package query

// The generators of this package's tests, for its external tests.
var (
	MakeUsers      = makeUsers
	MakeFacilities = makeFacilities
	TestBounds     = testBounds
)
