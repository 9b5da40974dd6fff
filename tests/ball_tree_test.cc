// The dynamic-tree property battery (tests/dynamic_tree_battery.h) run
// for BallTree, the covering-ball-bound instantiation of the tombstoned
// tree — the one meant for the moderate dimensionalities (d up to 24)
// the battery's sweep reaches.
#include "dynamic_tree_battery.h"

namespace gbx {

INSTANTIATE_TYPED_TEST_SUITE_P(BallTree, DynamicTreeTest, BallTree);
INSTANTIATE_TYPED_TEST_SUITE_P(BallTree, DynamicTreeDeathTest, BallTree);

}  // namespace gbx
