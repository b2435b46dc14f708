module pingmesh/bench

go 1.22

require pingmesh v0.0.0

replace pingmesh => ../
