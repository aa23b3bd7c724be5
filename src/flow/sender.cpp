#include "flow/sender.hpp"

namespace bbrnash {

template class BasicSender<CcVariant>;

}  // namespace bbrnash
