package fleet

// FleetDigest exposes fleetDigest to the external fleet_test package,
// whose operational-dimension profiles it pins.
var FleetDigest = fleetDigest

// Topology exposes topology to the external fleet_test package, whose
// clone tests cut fleets from a disk-less topology.
var Topology = (*Fleet).topology
