// The dynamic-tree property battery (tests/dynamic_tree_battery.h) run
// for DynamicKdTree, the box-bound instantiation of the tombstoned tree.
#include "dynamic_tree_battery.h"

namespace gbx {

INSTANTIATE_TYPED_TEST_SUITE_P(DynamicKdTree, DynamicTreeTest, DynamicKdTree);
INSTANTIATE_TYPED_TEST_SUITE_P(DynamicKdTree, DynamicTreeDeathTest,
                               DynamicKdTree);

}  // namespace gbx
