package plan

// VerdictsAgree exposes the differential check to the external plan_test
// package, whose fixtures come from packages that import plan themselves.
var VerdictsAgree = verdictsAgree
