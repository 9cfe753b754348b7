// Bad: calendar conversion of a wall-clock stamp outside src/netbase/time.*.
// localtime() additionally reads the host's time zone.
//
// det-expect: wall-clock-confinement

#include <ctime>

namespace iri::core {

int FxHourOfDay(std::time_t stamp) { return localtime(&stamp)->tm_hour; }

}  // namespace iri::core
