// Bait: sim (level 3) reaching up into apps (level 7).
#include "apps/topology.h" // ursa-lint-test: expect(layer-violation)

struct Kernel
{
    Topology topo;
};
