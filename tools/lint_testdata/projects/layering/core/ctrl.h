// Clean: core (level 6) may depend on sim (level 3) — the DAG only
// forbids upward includes.
#include "sim/kernel.h"

struct Controller
{
    Kernel kernel;
};
